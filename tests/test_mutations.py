"""Seeded bugs in the Jordan product, in the unit table of the product
kernels, in Q's monomial table and in the linear-algebra, polarization and
norm-trace layers, each pinned to the checks it fails, some at two shapes.

A check that no plausible bug can turn to ``fail`` proves nothing, and the
report cannot tell it from a strong one, so every check is pinned by some
bug. Each bug here is monkeypatched into one in-process run of ``--suite all
--trials 1 --seed 7`` at (k, delta) = (2, 8), or at the shape ``SHAPES``
names, which must fail exactly the checks pinned to it. The cached frame,
the norm table, the unit table and the kernels compiled from it are cleared
before and after each run, so a bug in the Gram inverse or in either table
neither misses the run nor outlives it.

A sign flip of one nullspace coordinate is not among the bugs: it cancels
across the two nullspaces of ``tangent_intersection``, so no check fails.
"""

import copy
from operator import mul

import pytest

from jordal import (composition, cubic, geometry, jordan, linalg, reconstruction,
                    runner, symmetry)
from jordal.jordan import norm_form, reduced
from jordal.reconstruction import frame
from jordal.report import FAIL
from jordal.runner import CHECKS, RunConfig, run_suite


def plus_one(values):
    """values with its first entry raised by one."""
    return (values[0] + 1,) + tuple(values[1:])


def last_diagonal_doubled(out):
    rows, den = out
    last = rows[-1][:-1] + (2 * rows[-1][-1],)
    return tuple(rows[:-1]) + (last,), den


def e1_e0_negated(table):
    """The unit table with e_1 e_0 = -e_1 in place of e_1."""
    (u, sign), rest = table[1][0], table[1][1:]
    return (table[0], ((u, -sign),) + rest) + table[2:]


def first_inverse_entry_plus_one(out):
    rows, den = out
    return (plus_one(rows[0]),) + tuple(rows[1:]), den


def first_numerator_plus_one(out):
    nums, den = out
    return plus_one(nums), den


def on_result(mutate):
    """The bug that changes what the function returns by mutate."""
    return lambda original: lambda *args: mutate(original(*args))


def coordinatewise_product(_original):
    """The product of two elements' canonical coordinates, entry by entry:
    commutative and associative, so it meets the Jordan identity, but I is
    not its unit and it is not the product Q's table was built from."""
    def product(a, b):
        (x, dx), (y, dy) = a.cleared, b.cleared
        return reduced(a.spec, tuple(map(mul, x, y)), dx * dy)
    return product


def first_coefficient_plus_one(form):
    """A copy of the form whose first table coefficient is raised by one."""
    out = copy.copy(form)
    (mono, c), rest = form.terms[0], form.terms[1:]
    out.terms = ((mono, c + 1),) + rest
    return out


def last_coordinate_dropped(form):
    """A copy of the form whose table drops every term that contains the
    last coordinate, so Q ignores it."""
    out = copy.copy(form)
    out.terms = tuple((mono, c) for mono, c in form.terms if form.dim - 1 not in mono)
    return out


# the modules that bind jordan_mul by name
PRODUCT_MODULES = (jordan, runner, cubic, symmetry)

# name: (module or tuple of modules, function, the bug: the original function
#        to its replacement, checks that must fail)
BUGS = {
    "jordan-mul-doubled": (
        PRODUCT_MODULES, "jordan_mul", on_result(lambda r: r + r),
        {"adjoint-comatrix", "bracketing-words", "cayley-hamilton",
         "derivative-oracle", "fourth-power", "pairing-product",
         "product-reconstruction", "projection-formula",
         "quadratic-structural", "square-decomposition", "trace-lemma",
         "unit-law"}),
    "coordinatewise-product": (
        PRODUCT_MODULES, "jordan_mul", coordinatewise_product,
        {"derivative-oracle", "jordan-violation", "pairing-product",
         "product-reconstruction", "trace-lemma", "unit-law"}),
    # one sign of the table both product kernels are compiled from: cd_mul
    # and the Jordan product (so Q's table) are wrong
    "unit-table-sign": (
        (composition, jordan), "unit_table", on_result(e1_e0_negated),
        {"adjoint-comatrix", "automorphism-trichotomy", "bracketing-words",
         "cayley-hamilton", "commutativity", "composite-similarity",
         "derivative-oracle", "double-adjoint", "double-point", "dual-point",
         "fourth-power", "homogeneity", "jordan-identity", "lie-triple",
         "mixed-adjoint", "mult-kernel", "norm-multiplicativity",
         "norm-semisimilarity", "pairing-product", "power-associativity",
         "product-reconstruction", "projection-formula",
         "quadratic-structural", "rank-characterization", "secant-membership",
         "square-decomposition", "structural-norm-factor",
         "tangent-intersection", "tangent-rank", "tau-normalized-det",
         "terracini-dimension", "unit-reduction"}),
    "inverse-entry": (
        reconstruction, "exact_inverse", on_result(first_inverse_entry_plus_one),
        {"adjoint-comatrix", "automorphism-trichotomy", "composite-similarity",
         "derivative-oracle", "double-adjoint", "mixed-adjoint",
         "norm-semisimilarity", "orbit-derivative", "product-reconstruction",
         "quadratic-structural", "scalar-reduction", "sharp-identity",
         "square-decomposition", "structural-norm-factor", "unit-reduction"}),
    "det-negated": (linalg, "exact_det", on_result(lambda d: -d),
                    {"tau-normalized-det"}),
    "rank-minus-one": (
        linalg, "exact_rank", on_result(lambda r: r - 1),
        {"cone-vertex", "dual-point", "mult-kernel", "tangent-intersection",
         "tangent-rank", "terracini-dimension"}),
    "solve-entry": (linalg, "exact_solve", on_result(first_numerator_plus_one),
                    {"homogeneity"}),
    "projection-solve-entry": (geometry, "exact_solve",
                               on_result(first_numerator_plus_one),
                               {"projection-formula"}),
    # tau, and so the Gram, the pairing and tau_M(x), read the pair matrix;
    # tau-symmetry's closed side and the dual point's gradient do not
    "pair-matrix-diagonal": (
        reconstruction, "pair_matrix", on_result(last_diagonal_doubled),
        {"adjoint-comatrix", "automorphism-trichotomy", "composite-similarity",
         "derivative-oracle", "double-adjoint", "dual-point", "homogeneity",
         "mixed-adjoint", "norm-semisimilarity", "orbit-derivative",
         "product-reconstruction", "projection-formula", "quadratic-structural",
         "scalar-reduction", "sharp-identity", "square-decomposition",
         "structural-norm-factor", "tau-normalized-det", "tau-symmetry",
         "unit-reduction"}),
    # the one combination routine: the closed product formula, the
    # derivative route's covector and the projection's element
    "combine-entry": (
        (reconstruction, geometry), "combine", on_result(first_numerator_plus_one),
        {"derivative-oracle", "orbit-derivative", "product-reconstruction",
         "projection-formula"}),
    # Q's table without the terms of the last coordinate: Q ignores it, so
    # the Gram is singular and no covector has a last entry
    "q-ignores-last-coordinate": (
        reconstruction, "norm_form", on_result(last_coordinate_dropped),
        {"adjoint-comatrix", "automorphism-trichotomy", "cayley-hamilton",
         "composite-similarity", "cone-vertex", "derivative-oracle",
         "double-adjoint", "double-point", "dual-point", "fourth-power",
         "homogeneity", "mixed-adjoint", "norm-semisimilarity",
         "orbit-derivative", "pairing-product", "permutation-similarity",
         "product-reconstruction", "projection-formula", "quadratic-structural",
         "rank-characterization", "scalar-reduction", "sharp-identity",
         "square-decomposition", "structural-norm-factor", "tau-normalized-det",
         "unit-reduction"}),
    # Q's table with its first coefficient raised by one: Q, every
    # polarization and the Gram are wrong, the product is not
    "q-table-coefficient": (
        reconstruction, "norm_form", on_result(first_coefficient_plus_one),
        {"adjoint-comatrix", "automorphism-trichotomy", "bracketing-words",
         "cayley-hamilton", "composite-similarity", "derivative-oracle",
         "double-adjoint", "double-point", "dual-point", "fourth-power",
         "homogeneity", "mixed-adjoint", "norm-semisimilarity",
         "orbit-derivative", "pairing-product", "product-reconstruction",
         "projection-formula", "quadratic-structural", "rank-characterization",
         "scalar-reduction", "sharp-identity", "square-decomposition",
         "structural-norm-factor", "tau-normalized-det", "trace-lemma",
         "unit-reduction"}),
    "nullspace-entries": (geometry, "exact_nullspace",
                          on_result(lambda basis: [plus_one(v) for v in basis]),
                          {"projection-formula"}),
    # every power trace past the first doubled: Q's table and char_coeffs
    # (so jordan_rank) are wrong, jordan_mul is not
    "trace-pairing-doubled": (
        jordan, "_trace_pairing", on_result(lambda t: 2 * t),
        {"adjoint-comatrix", "automorphism-trichotomy", "bracketing-words",
         "cayley-hamilton", "composite-similarity", "derivative-oracle",
         "double-adjoint", "double-point", "dual-point", "fourth-power",
         "homogeneity", "mixed-adjoint", "mult-kernel", "norm-semisimilarity",
         "orbit-derivative", "pairing-product", "product-reconstruction",
         "projection-formula", "quadratic-structural", "rank-characterization",
         "scalar-reduction", "secant-membership", "sharp-identity",
         "square-decomposition", "structural-norm-factor",
         "tangent-intersection", "tangent-rank", "tau-normalized-det",
         "terracini-dimension", "trace-lemma", "unit-reduction"}),
}
# bugs run at another shape than (2, 8)
SHAPES = {"coordinatewise-product": (3, 8)}
# bugs also run at (3, 4), under their own names: a quartic norm, where the
# severi suite skips; the checks each fails there
AT_3_4 = {
    "q-table-coefficient": {
        "automorphism-trichotomy", "composite-similarity", "derivative-oracle",
        "double-point", "dual-point", "homogeneity", "norm-semisimilarity",
        "orbit-derivative", "pairing-product", "product-reconstruction",
        "projection-formula", "quadratic-structural", "sharp-identity",
        "structural-norm-factor", "tau-normalized-det", "trace-lemma"},
    "unit-table-sign": {
        "automorphism-trichotomy", "commutativity", "composite-similarity",
        "derivative-oracle", "double-point", "dual-point", "homogeneity",
        "jordan-identity", "lie-triple", "mult-kernel", "norm-multiplicativity",
        "norm-semisimilarity", "pairing-product", "power-associativity",
        "product-reconstruction", "projection-formula", "quadratic-structural",
        "secant-membership", "structural-norm-factor", "tangent-intersection",
        "tangent-rank", "tau-normalized-det", "terracini-dimension"},
    "pair-matrix-diagonal": {
        "automorphism-trichotomy", "composite-similarity", "derivative-oracle",
        "dual-point", "homogeneity", "norm-semisimilarity", "orbit-derivative",
        "pairing-product", "product-reconstruction", "projection-formula",
        "quadratic-structural", "sharp-identity", "structural-norm-factor",
        "tau-normalized-det", "tau-symmetry"},
    "trace-pairing-doubled": {
        "automorphism-trichotomy", "composite-similarity", "derivative-oracle",
        "double-point", "dual-point", "homogeneity", "mult-kernel",
        "norm-semisimilarity", "orbit-derivative", "pairing-product",
        "product-reconstruction", "projection-formula", "quadratic-structural",
        "secant-membership", "sharp-identity", "structural-norm-factor",
        "tangent-intersection", "tangent-rank", "tau-normalized-det",
        "terracini-dimension", "trace-lemma"},
}
for bug, checks in AT_3_4.items():
    BUGS[f"{bug}-at-3-4"] = BUGS[bug][:3] + (checks,)
    SHAPES[f"{bug}-at-3-4"] = (3, 4)


def clear_caches():
    for cached in (frame, norm_form, composition.unit_table,
                   composition._mul_kernel, jordan._product_kernel):
        cached.cache_clear()


def failed_checks(monkeypatch, bug=None, shape=(2, 8)):
    """Ids of the checks the run at shape fails, with bug patched in if
    given; a bug given for several modules is patched into each."""
    clear_caches()
    try:
        if bug:
            modules, name, patch, _ = BUGS[bug]
            if not isinstance(modules, tuple):
                modules = (modules,)
            buggy = patch(getattr(modules[0], name))
            for module in modules:
                monkeypatch.setattr(module, name, buggy)
        k, delta = shape
        report = run_suite(RunConfig(k=k, delta=delta, suite="all", trials=1, seed=7))
    finally:
        monkeypatch.undo()
        clear_caches()
    return {c.id for c in report.checks if c.status == FAIL}


def test_unmutated_run_fails_nothing(monkeypatch):
    for shape in sorted({(2, 8), *SHAPES.values()}):
        assert failed_checks(monkeypatch, shape=shape) == set()


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_seeded_bug_fails_its_pinned_checks(bug, monkeypatch):
    got = failed_checks(monkeypatch, bug, SHAPES.get(bug, (2, 8)))
    assert got == BUGS[bug][3]


def test_every_check_is_pinned_by_some_bug():
    pinned = set().union(*(checks for *_, checks in BUGS.values()))
    assert {c.id for c in CHECKS} - pinned == set()
