"""Hermitian matrix algebras: dimensions, products, characteristic data."""

from fractions import Fraction

import pytest

from jordal.composition import DimensionMismatch
from jordal.jordan import (
    JordanElement,
    JordanSpec,
    char_coeffs,
    diagonal_element,
    generic_norm,
    identity,
    jordan_identity_residual,
    jordan_mul,
    jordan_power,
    jordan_rank,
    mult_operator,
    norm_form,
    quadratic_rep,
    random_element,
)
from jordal.rng import sample_coords, stream_rng
from oracles import (dense_symmetric_product, gauss_det, leibniz_det,
                     newton_coeffs, power_traces)

ALL_SPECS = [(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4),
             (4, 1), (4, 2), (5, 1)]


@pytest.mark.parametrize("k,delta,dim", [
    (2, 1, 6), (2, 2, 9), (2, 4, 15), (2, 8, 27),
    (3, 1, 10), (3, 2, 16), (3, 4, 28), (3, 8, 52),
    (4, 1, 15), (4, 2, 25), (5, 1, 21),
])
def test_dimension_formula(k, delta, dim):
    spec = JordanSpec(k, delta)
    assert spec.dim == dim
    assert spec.dim == spec.size + delta * len(spec.pairs)
    assert spec.size == k + 1
    assert spec.degree == k + 1
    assert spec.ambient == k * delta


def test_is_jordan_flag():
    assert JordanSpec(2, 8).is_jordan
    assert JordanSpec(5, 4).is_jordan
    assert not JordanSpec(3, 8).is_jordan
    assert not JordanSpec(4, 8).is_jordan


def test_spec_validation():
    with pytest.raises(ValueError):
        JordanSpec(1, 1)
    with pytest.raises(DimensionMismatch):
        JordanSpec(2, 3)


def test_coords_round_trip():
    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(0, "coords", k, delta)
        vec = sample_coords(rng, spec.dim)
        a = JordanElement.from_coords(spec, vec)
        assert a.coords() == tuple(vec)
        # the matrix grid is Hermitian
        g = a.grid()
        for i in range(spec.size):
            for j in range(spec.size):
                assert g[i][j] == tuple(
                    g[j][i][0:1]) + tuple(-v for v in g[j][i][1:])


def test_element_arithmetic():
    spec = JordanSpec(2, 4)
    rng = stream_rng(1, "arith")
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    assert (a + b).coords() == tuple(x + y for x, y in zip(a.coords(), b.coords()))
    assert (a - a).is_zero()
    assert (-a).coords() == tuple(-x for x in a.coords())
    assert a.scale(Fraction(1, 2)).coords() == tuple(
        Fraction(x, 2) for x in a.coords())
    assert (2 * a).coords() == a.scale(2).coords()
    assert a.max_abs() == max(abs(c) for c in a.coords())


def test_product_matches_dense_oracle():
    for (k, delta) in [(2, 1), (2, 2), (2, 4), (2, 8), (3, 2), (3, 4), (3, 8),
                       (4, 1)]:
        spec = JordanSpec(k, delta)
        rng = stream_rng(2, "dense", k, delta)
        for _ in range(5):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            assert jordan_mul(a, b) == dense_symmetric_product(a, b)

        def lift(x, to):
            return JordanElement.from_coords(spec, [to(v) for v in x.coords()])

        # Fraction coordinates with mixed denominators
        fa = lift(a, lambda v: Fraction(v, rng.randint(1, 9)))
        fb = lift(b, lambda v: Fraction(v, rng.randint(1, 9)))
        assert jordan_mul(fa, fb) == dense_symmetric_product(fa, fb)
        # integral Fractions, which a product of int elements returns
        sq = jordan_mul(a, a)
        assert any(isinstance(v, Fraction) for v in sq.coords())
        assert jordan_mul(sq, fb) == dense_symmetric_product(sq, fb)
        # floats stay floats, within rounding of the exact product
        xa, xb = lift(fa, float), lift(fb, float)
        got = jordan_mul(xa, xb).coords()
        assert all(type(v) is float for v in got)
        want = dense_symmetric_product(lift(xa, Fraction), lift(xb, Fraction))
        assert max(abs(g - w) for g, w in zip(got, want.coords())) < 1e-9


def test_unit_and_commutativity():
    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(3, "unit", k, delta)
        e = identity(spec)
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        assert jordan_mul(e, a) == a
        assert jordan_mul(a, b) == jordan_mul(b, a)


def test_char_coeffs_against_fraction_newton():
    # integer-only Newton recursion on doubled grid powers vs the Fraction
    # recursion on traces of iterated Jordan products
    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(4, "newton", k, delta)
        for _ in range(4):
            a = random_element(spec, rng)
            sigma = char_coeffs(a)
            p = power_traces(a, spec.degree)
            expected = newton_coeffs(p, spec.degree)
            # integer inputs give exact integer coefficients
            assert all(s.denominator == 1 for s in sigma)
            assert tuple(sigma) == tuple(expected)
            assert sigma[0] == sum(a.diag)
            assert sigma[-1] == generic_norm(a)


def test_norm_against_leibniz_determinant():
    # permutation-sum determinant is available for real and complex entries
    for (k, delta) in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]:
        spec = JordanSpec(k, delta)
        rng = stream_rng(5, "leibniz", k, delta)
        for _ in range(4):
            a = random_element(spec, rng)
            assert generic_norm(a) == leibniz_det(a.grid(), spec.size, delta)


def test_norm_against_gauss_determinant():
    # real symmetric case only: grids are plain scalar matrices; both the
    # element route (generic_norm) and the coordinate form (norm_form, the
    # one that is polarized) must give the determinant
    for k in (2, 3, 4, 5):
        spec = JordanSpec(k, 1)
        form = norm_form(spec)
        rng = stream_rng(6, "gauss", k)
        for _ in range(4):
            a = random_element(spec, rng)
            rows = [[c[0] for c in row] for row in a.grid()]
            assert generic_norm(a) == gauss_det(rows)
            assert form(a.coords()) == gauss_det(rows)
        mixed = JordanElement.from_coords(
            spec, [Fraction(3 * i - 7, i % 4 + 2) for i in range(spec.dim)])
        rows = [[c[0] for c in row] for row in mixed.grid()]
        assert form(mixed.coords()) == gauss_det(rows)
        floats = [rng.uniform(-9, 9) for _ in range(spec.dim)]
        rows = [[c[0] for c in row]
                for row in JordanElement.from_coords(spec, floats).grid()]
        value = form(floats)
        assert isinstance(value, float)
        assert value == pytest.approx(float(gauss_det(rows)), rel=1e-9)


def test_norm_homogeneity():
    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(7, "homog", k, delta)
        a = random_element(spec, rng)
        t = rng.randint(2, 7)
        assert generic_norm(a.scale(t)) == t ** spec.degree * generic_norm(a)
        sigma = char_coeffs(a.scale(t))
        for j, s in enumerate(sigma, start=1):
            assert s == t ** j * char_coeffs(a)[j - 1]


def test_jordan_rank():
    spec = JordanSpec(3, 2)
    assert jordan_rank(JordanElement.zero(spec)) == 0
    assert jordan_rank(identity(spec)) == spec.degree
    assert jordan_rank(diagonal_element(spec, [5, 0, 0, 0])) == 1
    assert jordan_rank(diagonal_element(spec, [5, -2, 0, 0])) == 2
    assert jordan_rank(diagonal_element(spec, [5, -2, 1, 0])) == 3
    # float route with tolerance
    a = diagonal_element(spec, [1, 1, 0, 0])
    af = JordanElement.from_coords(spec, [float(c) for c in a.coords()])
    assert jordan_rank(af, tol=1e-9) == 2


def test_powers_associate():
    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(8, "powers", k, delta)
        a = random_element(spec, rng)
        a2 = jordan_mul(a, a)
        a3 = jordan_mul(a2, a)
        assert jordan_power(a, 2) == a2
        assert jordan_power(a, 3) == a3
        # A^2 A^3 = A^4 A with the commutative product
        assert jordan_mul(a2, a3) == jordan_mul(jordan_power(a, 4), a)


def test_quadratic_rep_identity():
    # P(A) = 2 M(A)^2 - M(A^2) and P(A) applied to the unit gives A^2
    for (k, delta) in [(2, 2), (2, 8), (3, 4), (4, 1)]:
        spec = JordanSpec(k, delta)
        rng = stream_rng(9, "quadrep", k, delta)
        a = random_element(spec, rng)
        m = mult_operator(a)
        p = quadratic_rep(a)
        two_m2 = [[2 * v for v in row] for row in m.compose(m).matrix]
        msq = mult_operator(jordan_mul(a, a)).matrix
        assert p.matrix == tuple(
            tuple(x - y for x, y in zip(r2, r1))
            for r2, r1 in zip(two_m2, msq))
        e2 = p.apply(identity(spec).coords())
        assert JordanElement.from_coords(spec, e2) == jordan_mul(a, a)


def test_jordan_identity_residual():
    # zero on the honest algebras, nonzero on the octonion 4x4 shape
    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(10, "jid", k, delta)
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        assert jordan_identity_residual(a, b) == 0
    bad = JordanSpec(3, 8)
    rng = stream_rng(10, "jid", 3, 8)
    residuals = [jordan_identity_residual(random_element(bad, rng),
                                          random_element(bad, rng))
                 for _ in range(5)]
    assert any(r != 0 for r in residuals)
