"""Seeded bugs in the unit table of the product kernels, in Q's monomial
table and in the linear-algebra, polarization and norm-trace layers, each
pinned to the checks it fails.

A check that no plausible bug can turn to ``fail`` proves nothing, and the
report cannot tell it from a strong one. Each bug here is monkeypatched into
one in-process run of ``--k 2 --delta 8 --suite all --trials 1 --seed 7``,
which must fail exactly the checks pinned to it. The cached frame, the norm
table, the unit table and the kernels compiled from it are cleared before and
after each run, so a bug in the Gram inverse or in either table neither
misses the run nor outlives it.

A sign flip of one nullspace coordinate is not among the bugs: it cancels
across the two nullspaces of ``tangent_intersection``, so no check fails.
"""

import copy

import pytest

from jordal import composition, geometry, jordan, linalg, reconstruction
from jordal.jordan import norm_form
from jordal.reconstruction import frame
from jordal.report import FAIL
from jordal.runner import RunConfig, run_suite


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


def last_coordinate_dropped(form):
    """A copy of the form whose table drops every term that contains the
    last coordinate, so Q ignores it."""
    out = copy.copy(form)
    out.terms = tuple((mono, c) for mono, c in form.terms if form.dim - 1 not in mono)
    return out


# name: (module or tuple of modules, function, how its result is changed,
#        checks that must fail)
BUGS = {
    # one sign of the table both product kernels are compiled from: cd_mul
    # and the Jordan product (so Q's table) are wrong
    "unit-table-sign": (
        (composition, jordan), "unit_table", e1_e0_negated,
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
        reconstruction, "exact_inverse", first_inverse_entry_plus_one,
        {"adjoint-comatrix", "automorphism-trichotomy", "composite-similarity",
         "derivative-oracle", "double-adjoint", "mixed-adjoint",
         "norm-semisimilarity", "orbit-derivative", "product-reconstruction",
         "quadratic-structural", "scalar-reduction", "sharp-identity",
         "square-decomposition", "structural-norm-factor", "unit-reduction"}),
    "det-negated": (linalg, "exact_det", lambda d: -d, {"tau-normalized-det"}),
    "rank-minus-one": (
        linalg, "exact_rank", lambda r: r - 1,
        {"cone-vertex", "dual-point", "mult-kernel", "tangent-intersection",
         "tangent-rank", "terracini-dimension"}),
    "solve-entry": (linalg, "exact_solve", plus_one, {"homogeneity"}),
    "projection-solve-entry": (geometry, "exact_solve", plus_one,
                               {"projection-formula"}),
    # tau, and so the Gram, the pairing and tau_M(x), read the pair matrix;
    # tau-symmetry's closed side and the dual point's gradient do not
    "pair-matrix-diagonal": (
        reconstruction, "pair_matrix", last_diagonal_doubled,
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
        (reconstruction, geometry), "combine", first_numerator_plus_one,
        {"derivative-oracle", "orbit-derivative", "product-reconstruction",
         "projection-formula"}),
    # Q's table without the terms of the last coordinate: Q ignores it, so
    # the Gram is singular and no covector has a last entry
    "q-ignores-last-coordinate": (
        reconstruction, "norm_form", last_coordinate_dropped,
        {"adjoint-comatrix", "automorphism-trichotomy", "cayley-hamilton",
         "composite-similarity", "cone-vertex", "derivative-oracle",
         "double-adjoint", "double-point", "dual-point", "fourth-power",
         "homogeneity", "mixed-adjoint", "norm-semisimilarity",
         "orbit-derivative", "pairing-product", "permutation-similarity",
         "product-reconstruction", "projection-formula", "quadratic-structural",
         "rank-characterization", "scalar-reduction", "sharp-identity",
         "square-decomposition", "structural-norm-factor", "tau-normalized-det",
         "unit-reduction"}),
    "nullspace-entries": (geometry, "exact_nullspace",
                          lambda basis: [plus_one(v) for v in basis],
                          {"projection-formula"}),
    # every power trace past the first doubled: Q's table and char_coeffs
    # (so jordan_rank) are wrong, jordan_mul is not
    "trace-pairing-doubled": (
        jordan, "_trace_pairing", lambda t: 2 * t,
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


def clear_caches():
    for cached in (frame, norm_form, composition.unit_table,
                   composition._mul_kernel, jordan._product_kernel):
        cached.cache_clear()


def failed_checks(monkeypatch, bug=None):
    """Ids of the checks the (2,8) run fails, with bug patched in if given;
    a bug given for several modules is patched into each."""
    clear_caches()
    try:
        if bug:
            modules, name, mutate, _ = BUGS[bug]
            if not isinstance(modules, tuple):
                modules = (modules,)
            original = getattr(modules[0], name)
            for module in modules:
                monkeypatch.setattr(module, name,
                                    lambda *args: mutate(original(*args)))
        report = run_suite(RunConfig(k=2, delta=8, suite="all", trials=1, seed=7))
    finally:
        monkeypatch.undo()
        clear_caches()
    return {c.id for c in report.checks if c.status == FAIL}


def test_unmutated_run_fails_nothing(monkeypatch):
    assert failed_checks(monkeypatch) == set()


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_seeded_bug_fails_its_pinned_checks(bug, monkeypatch):
    assert failed_checks(monkeypatch, bug) == BUGS[bug][3]
