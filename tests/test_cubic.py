"""Degree-3 special identities: adjoints, reductions, power words."""

import pytest

from jordal.cubic import (
    DegreeMismatch,
    adjoint,
    bracketing_residual,
    bracketings,
    cayley_hamilton_residual,
    comatrix_product_residual,
    companion_matrix,
    cubic_context,
    double_adjoint_residual,
    fourth_power_residuals,
    mixed_adjoint_residual,
    power_coefficients,
    scalar_reduction_residual,
    square_decomposition_residual,
    unit_reduction_residual,
    word_power,
)
from jordal.geometry import sample_rank_one
from jordal.jordan import (
    JordanSpec,
    diagonal_element,
    identity,
    jordan_mul,
    jordan_power,
    jordan_rank,
    random_element,
)
from jordal.rng import stream_rng
from oracles import classical_adjugate

DELTAS = (1, 2, 4, 8)


def ctx_for(delta):
    return cubic_context(JordanSpec(2, delta))


def test_requires_degree_three():
    with pytest.raises(DegreeMismatch):
        cubic_context(JordanSpec(3, 1))


def test_adjoint_of_unit():
    for delta in DELTAS:
        ctx = ctx_for(delta)
        e = identity(ctx.spec)
        assert adjoint(ctx, e) == e


def test_adjoint_matches_classical_adjugate():
    # scalar case: cofactor expansion is an independent route
    spec = JordanSpec(2, 1)
    ctx = cubic_context(spec)
    rng = stream_rng(80, "adj")
    for _ in range(8):
        a = random_element(spec, rng)
        assert adjoint(ctx, a) == classical_adjugate(spec, a)


def test_adjoint_on_diagonal():
    # adj diag(a,b,c) = diag(bc, ac, ab) for every entry algebra
    for delta in DELTAS:
        ctx = ctx_for(delta)
        a = diagonal_element(ctx.spec, [2, 3, 5])
        assert adjoint(ctx, a) == diagonal_element(ctx.spec, [15, 10, 6])


def test_comatrix_product():
    for delta in DELTAS:
        ctx = ctx_for(delta)
        rng = stream_rng(81, "com", delta)
        for _ in range(4):
            a = random_element(ctx.spec, rng)
            assert comatrix_product_residual(ctx, a) == 0


def test_double_adjoint():
    for delta in DELTAS:
        ctx = ctx_for(delta)
        rng = stream_rng(82, "dadj", delta)
        for _ in range(4):
            assert double_adjoint_residual(ctx, random_element(ctx.spec, rng)) == 0


def test_mixed_adjoint():
    for delta in DELTAS:
        ctx = ctx_for(delta)
        rng = stream_rng(83, "mixed", delta)
        for _ in range(3):
            a = random_element(ctx.spec, rng)
            b = random_element(ctx.spec, rng)
            assert mixed_adjoint_residual(ctx, a, b) == 0


def test_reduction_identities():
    for delta in DELTAS:
        ctx = ctx_for(delta)
        rng = stream_rng(84, "red", delta)
        for _ in range(3):
            a = random_element(ctx.spec, rng)
            assert unit_reduction_residual(ctx, a) == 0
            assert scalar_reduction_residual(ctx, a) == 0


def test_square_decomposition():
    for delta in DELTAS:
        ctx = ctx_for(delta)
        rng = stream_rng(85, "sq", delta)
        a = random_element(ctx.spec, rng)
        assert square_decomposition_residual(ctx, a) == 0


def test_cayley_hamilton_and_fourth_power():
    for delta in DELTAS:
        ctx = ctx_for(delta)
        rng = stream_rng(86, "ch", delta)
        for _ in range(3):
            a = random_element(ctx.spec, rng)
            assert cayley_hamilton_residual(ctx, a) == 0
            assert fourth_power_residuals(ctx, a) == (0, 0)


def test_companion_matrix_recursion():
    for delta in (1, 8):
        ctx = ctx_for(delta)
        rng = stream_rng(87, "companion", delta)
        a = random_element(ctx.spec, rng)
        # coefficients of low powers in span(I, A, A*A)
        assert power_coefficients(ctx, a, 0) == (1, 0, 0)
        assert power_coefficients(ctx, a, 1) == (0, 1, 0)
        assert power_coefficients(ctx, a, 2) == (0, 0, 1)
        c = power_coefficients(ctx, a, 3)
        mat = companion_matrix(ctx, a)
        assert c == (mat[0][2], mat[1][2], mat[2][2])
        # the recursion reproduces honest iterated powers
        for m in range(7):
            assert word_power(ctx, a, m) == jordan_power(a, m)


def test_bracketings_catalan_counts():
    ctx = ctx_for(1)
    rng = stream_rng(88, "cat")
    a = random_element(ctx.spec, rng)
    counts = [len(bracketings(a, n)) for n in range(1, 7)]
    assert counts == [1, 1, 2, 5, 14, 42]
    with pytest.raises(ValueError):
        bracketings(a, 0)


def test_bracketing_words_collapse():
    for delta in DELTAS:
        ctx = ctx_for(delta)
        rng = stream_rng(89, "brk", delta)
        a = random_element(ctx.spec, rng)
        assert bracketing_residual(ctx, a, upto=5) == 0


def test_rank_characterization():
    for delta in (1, 2):
        ctx = ctx_for(delta)
        spec = ctx.spec
        rng = stream_rng(90, "rankchar", delta)
        cases = [
            sample_rank_one(spec, rng).element,      # rank 1
            diagonal_element(spec, [1, -2, 0]),      # rank 2
            random_element(spec, rng),               # generically rank 3
            diagonal_element(spec, [0, 0, 0]),       # rank 0
        ]
        for a in cases:
            r = jordan_rank(a)
            assert (r <= 1) == adjoint(ctx, a).is_zero()
            assert (r <= 2) == (ctx.norm(a) == 0)
        # direct statements at pinned ranks
        one = sample_rank_one(spec, rng).element
        assert adjoint(ctx, one).is_zero()
        two = diagonal_element(spec, [3, 7, 0])
        assert not adjoint(ctx, two).is_zero()
        assert ctx.norm(two) == 0
