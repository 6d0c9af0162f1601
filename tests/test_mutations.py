"""Seeded bugs in the Jordan product, in the unit table of the product
kernels, in Q's monomial table and in the linear-algebra, polarization and
norm-trace layers, each pinned to the checks it fails, some at two shapes.

A check that no plausible bug can turn to ``fail`` proves nothing, and the
report cannot tell it from a strong one, so every check is pinned by some
bug. Each bug here is monkeypatched into one in-process run of ``--suite all
--trials 1 --seed 7`` at (k, delta) = (2, 8), or at the shape ``SHAPES``
names, which must fail exactly the checks pinned to it. The whole JSON
report of each run is pinned too, by a digest: a report whose failing set
holds can still move, for instance in the ``max_abs_error`` of a failing
check when a sides function gets its operands swapped. The cached frame,
the norm table, the unit table and the kernels compiled from it are cleared
before and after each run, so a bug in the Gram inverse or in either table
neither misses the run nor outlives it.

A sign flip of one nullspace coordinate is not among the bugs: it cancels
across the two nullspaces of ``tangent_intersection``, so no check fails.
"""

import copy
import hashlib
from operator import mul

import pytest

from jordal import (composition, cubic, geometry, jordan, linalg, reconstruction,
                    runner, symmetry)
from jordal.jordan import norm_form, reduced
from jordal.reconstruction import frame
from jordal.report import FAIL, render_json
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
    # the layout's lower blocks hold x in place of conj(x), so the product
    # kernel and grid() build AB + BA with the transpose in place of the
    # conjugate transpose
    "layout-unconjugated": (
        jordan, "cd_conj", lambda _original: lambda x: tuple(x),
        {"adjoint-comatrix", "automorphism-trichotomy", "bracketing-words",
         "cayley-hamilton", "commutativity", "composite-similarity",
         "derivative-oracle", "double-adjoint", "double-point", "dual-point",
         "fourth-power", "homogeneity", "jordan-identity", "lie-triple",
         "mixed-adjoint", "mult-kernel", "norm-semisimilarity",
         "pairing-product", "power-associativity", "product-reconstruction",
         "projection-formula", "quadratic-structural", "rank-characterization",
         "secant-membership", "square-decomposition", "structural-norm-factor",
         "tangent-intersection", "tangent-rank", "tau-normalized-det",
         "terracini-dimension", "trace-lemma", "unit-law", "unit-reduction"}),
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
    "layout-unconjugated": {
        "automorphism-trichotomy", "commutativity", "composite-similarity",
        "derivative-oracle", "double-point", "dual-point", "homogeneity",
        "jordan-identity", "lie-triple", "mult-kernel", "norm-semisimilarity",
        "pairing-product", "permutation-similarity", "power-associativity",
        "product-reconstruction", "projection-formula", "quadratic-structural",
        "secant-membership", "structural-norm-factor", "tangent-intersection",
        "tangent-rank", "tau-normalized-det", "terracini-dimension",
        "trace-lemma", "unit-law"},
}
for bug, checks in AT_3_4.items():
    BUGS[f"{bug}-at-3-4"] = BUGS[bug][:3] + (checks,)
    SHAPES[f"{bug}-at-3-4"] = (3, 4)

# sha256 prefix of each bug's JSON report
REPORT_PINNED = {
    "combine-entry": "569d6cbb0d41d16d",
    "coordinatewise-product": "1d2041ea753b9400",
    "det-negated": "7e3238c17e80b3a0",
    "inverse-entry": "1e54087d478da6f8",
    "jordan-mul-doubled": "8869d12f084c7bd4",
    "layout-unconjugated": "1aeb6f76344a5d1b",
    "layout-unconjugated-at-3-4": "8dbc1a5c3f08c288",
    "nullspace-entries": "87734dccc3fec637",
    "pair-matrix-diagonal": "102bb21c3f20293f",
    "pair-matrix-diagonal-at-3-4": "808bee1994889baf",
    "projection-solve-entry": "3ee8f77c7edaa83b",
    "q-ignores-last-coordinate": "8526e1a7a3de0697",
    "q-table-coefficient": "2988fab650759d2f",
    "q-table-coefficient-at-3-4": "ab5f9e04dfa0dfe0",
    "rank-minus-one": "34268dc60073c66a",
    "solve-entry": "c0756af590018149",
    "trace-pairing-doubled": "c01c556b7f88269d",
    "trace-pairing-doubled-at-3-4": "8ee2630039649043",
    "unit-table-sign": "bb04128d5badec69",
    "unit-table-sign-at-3-4": "ccbcba7607535b25",
}


def clear_caches():
    for cached in (frame, norm_form, composition.unit_table,
                   composition._mul_kernel, jordan._product_kernel):
        cached.cache_clear()


def run_report(monkeypatch, bug=None, shape=(2, 8)):
    """The report of the run at shape, with bug patched in if given; a bug
    given for several modules is patched into each."""
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
        return run_suite(RunConfig(k=k, delta=delta, suite="all", trials=1, seed=7))
    finally:
        monkeypatch.undo()
        clear_caches()


def failed_checks(report):
    return {c.id for c in report.checks if c.status == FAIL}


def test_unmutated_run_fails_nothing(monkeypatch):
    for shape in sorted({(2, 8), *SHAPES.values()}):
        assert failed_checks(run_report(monkeypatch, shape=shape)) == set()


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_seeded_bug_fails_its_pinned_checks(bug, monkeypatch):
    report = run_report(monkeypatch, bug, SHAPES.get(bug, (2, 8)))
    assert failed_checks(report) == BUGS[bug][3]
    got = hashlib.sha256(render_json(report)).hexdigest()[:16]
    assert got == REPORT_PINNED[bug], (
        f"report under {bug} changed: digest {got}; its checks:\n"
        + "\n".join(f"{c.id} {c.status} {c.max_abs_error}" for c in report.checks))


def test_every_check_is_pinned_by_some_bug():
    pinned = set().union(*(checks for *_, checks in BUGS.values()))
    assert {c.id for c in CHECKS} - pinned == set()
