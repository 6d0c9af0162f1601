"""Hermitian matrix algebras: dimensions, products, characteristic data."""

from fractions import Fraction
from hashlib import sha256
from math import gcd

import pytest

import jordal.jordan as jordan_module
import jordal.linalg as linalg_module
from jordal.backend import FloatBackend
from jordal.composition import _GROUP, DimensionMismatch
from jordal.jordan import (
    JordanElement,
    JordanSpec,
    SpecMismatch,
    basis_element,
    char_coeffs,
    from_entries,
    identity,
    jordan_mul,
    jordan_rank,
    mult_operator,
    norm_form,
    quadratic_rep,
    random_element,
)
from jordal.linalg import LinearOperator
from jordal.polarization import _grading, _Poly
from jordal.reconstruction import frame
from jordal.rng import sample_coords, stream_rng
from jordal.runner import _jordan_sides
from oracles import (dense_symmetric_product, diagonal_element, freudenthal_norm,
                     gauss_det, jordan_power, leibniz_det, newton_coeffs,
                     power_traces, values, vector_values)

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
    # k is checked first, with a plain ValueError, whatever delta is
    with pytest.raises(ValueError, match="^k must be at least 2, got 1$") as bad_k:
        JordanSpec(1, 8)
    assert type(bad_k.value) is ValueError
    with pytest.raises(DimensionMismatch,
                       match=r"^delta must be one of \(1, 2, 4, 8\), got 3$"):
        JordanSpec(delta=3, k=2)
    # _replace goes through the constructor, so it cannot build a bad spec
    assert JordanSpec(2, 8)._replace(delta=4) == JordanSpec(2, 4)
    with pytest.raises(ValueError, match="^k must be at least 2, got 1$"):
        JordanSpec(2, 8)._replace(k=1)
    with pytest.raises(DimensionMismatch):
        JordanSpec(2, 8)._replace(delta=3)
    # non-integer shapes: a float k or delta passes the range tests but
    # gives a float dim, and delta=True would read as a spec field
    for k, delta in [(2.5, 8), (2.0, 8), (True, 8)]:
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            JordanSpec(k, delta)
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            JordanSpec(2, delta)._replace(k=k)
    for delta in (8.0, True, 1.0):
        with pytest.raises(DimensionMismatch,
                           match=r"^delta must be one of \(1, 2, 4, 8\), got "):
            JordanSpec(3, delta)
        with pytest.raises(DimensionMismatch):
            JordanSpec(3, 8)._replace(delta=delta)


def test_spec_is_an_immutable_value():
    spec = JordanSpec(2, 8)
    with pytest.raises(AttributeError):
        spec.k = 3
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert repr(spec) == "JordanSpec(k=2, delta=8)"
    twin = JordanSpec(k=2, delta=8)
    assert twin == spec and twin is not spec and hash(twin) == hash(spec)
    assert JordanSpec(2, 4) != spec
    # caches keyed by a spec answer an equal spec with the same object
    assert frame(twin) is frame(spec)


def test_coords_round_trip():
    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(0, "coords", k, delta)
        vec = sample_coords(rng, spec.dim)
        a = JordanElement(spec, vec)
        assert a.coords() == tuple(vec)
        # the matrix grid is Hermitian
        g = a.grid()
        for i in range(spec.size):
            for j in range(spec.size):
                assert g[i][j] == tuple(
                    g[j][i][0:1]) + tuple(-v for v in g[j][i][1:])


def test_from_entries_layout():
    # from_entries writes the layout that grid() reads
    for (k, delta) in [(2, 1), (2, 2), (3, 4), (2, 8), (3, 8)]:
        spec = JordanSpec(k, delta)
        rng = stream_rng(0, "entries", k, delta)
        for _ in range(3):
            a = random_element(spec, rng)
            grid = a.grid()
            assert from_entries(spec, lambda i, j: grid[i][j][0] if i == j
                                else grid[i][j]) == a
    # diagonal first, then one delta-block per pair i < j in lexicographic order
    spec = JordanSpec(2, 2)
    a = from_entries(spec, lambda i, j: 10 * i + j + 1 if i == j
                     else (10 * i + j + 1, -(10 * i + j + 1)))
    assert a.coords() == (1, 12, 23, 2, -2, 3, -3, 13, -13)
    with pytest.raises(SpecMismatch):
        JordanElement(spec, (0,) * (spec.dim - 1))


def test_element_arithmetic():
    spec = JordanSpec(2, 4)
    rng = stream_rng(1, "arith")
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    assert (a + b).coords() == tuple(x + y for x, y in zip(a.coords(), b.coords()))
    assert (a - a).is_zero()
    assert a.scale(-1).coords() == tuple(-x for x in a.coords())
    assert a.scale(Fraction(1, 2)).coords() == tuple(
        Fraction(x, 2) for x in a.coords())
    assert a.scale(2).coords() == tuple(2 * x for x in a.coords())
    assert a.max_abs() == max(abs(c) for c in a.coords())


def _mixed_fractions(spec, rng):
    return JordanElement(spec, [Fraction(v, rng.randint(1, 9))
                                for v in sample_coords(rng, spec.dim)])


def test_element_holds_numerators_in_lowest_terms():
    spec = JordanSpec(3, 4)
    rng = stream_rng(11, "lowest")
    a, b = _mixed_fractions(spec, rng), _mixed_fractions(spec, rng)
    for e in (a, b, a + b, a - b, jordan_mul(a, b), a.scale(Fraction(6, 7)),
              a - a, random_element(spec, rng)):
        assert e._den > 0
        assert all(type(v) is int for v in e._nums)
        assert gcd(e._den, *e._nums) == 1
        assert e.coords() == tuple(Fraction(v, e._den) for v in e._nums)


def test_equal_values_are_equal_elements():
    spec = JordanSpec(2, 2)
    ints = tuple(range(-4, spec.dim - 4))
    halves = [Fraction(v, 2) for v in ints]
    forms = [JordanElement(spec, ints),
             JordanElement(spec, map(Fraction, ints)),
             JordanElement(spec, [Fraction(3 * v, 3) for v in ints])]
    forms_half = [JordanElement(spec, halves),
                  JordanElement(spec, [Fraction(3 * v, 6) for v in ints]),
                  JordanElement(spec, ints).scale(Fraction(1, 2)),
                  JordanElement(spec, [Fraction(v, 6) for v in ints]).scale(3)]
    for group in (forms, forms_half):
        assert all(e == group[0] for e in group)
    assert forms[0] != forms_half[0]


def test_coords_round_trip_fractions():
    spec = JordanSpec(2, 8)
    rng = stream_rng(12, "fractions")
    vec = [Fraction(v, rng.randint(1, 9)) for v in sample_coords(rng, spec.dim)]
    assert JordanElement(spec, vec).coords() == tuple(vec)
    a = JordanElement(spec, vec)
    assert JordanElement(spec, a.coords()) == a
    assert (a + JordanElement(spec, (0,) * spec.dim)).coords() == tuple(vec)


def test_float_elements_stay_float():
    spec = JordanSpec(3, 2)
    rng = stream_rng(13, "floats")
    a = JordanElement(spec, [rng.uniform(-9, 9) for _ in range(spec.dim)])
    b = JordanElement(spec, [rng.uniform(-9, 9) for _ in range(spec.dim)])
    for e in (a, jordan_mul(a, b), a + b, a - b, a.scale(Fraction(1, 3)), a.scale(3)):
        assert all(type(v) is float for v in e.coords())
    assert (a - a).is_zero()


def test_exact_and_float_elements_compare_by_value():
    spec = JordanSpec(2, 1)
    ints = (1, -2, 0, 3, 5, -7)
    halves = tuple(Fraction(v, 2) for v in ints)
    exact, exact_half = JordanElement(spec, ints), JordanElement(spec, halves)
    floats = JordanElement(spec, map(float, ints))
    floats_half = JordanElement(spec, (v / 2 for v in ints))
    assert exact == floats
    assert exact_half == floats_half
    assert exact != floats_half and exact_half != floats
    thirds = JordanElement(spec, (Fraction(v, 3) for v in ints))
    assert thirds != JordanElement(spec, (v / 3 for v in ints))
    # sums of an exact and a float element are floats, as float arithmetic gives
    got = (exact_half + floats).coords()
    assert all(type(v) is float for v in got)
    assert got == tuple(1.5 * v for v in ints)


@pytest.mark.parametrize("k,delta", [(2, 8), (3, 4)])
def test_exact_arithmetic_builds_no_fraction(k, delta, monkeypatch):
    spec = JordanSpec(k, delta)
    rng = stream_rng(14, "nofraction", k, delta)
    a, b = _mixed_fractions(spec, rng), _mixed_fractions(spec, rng)

    def no_fraction(*args, **kwargs):
        raise AssertionError("built a Fraction")

    monkeypatch.setattr(linalg_module, "Fraction", no_fraction)
    ab, ba = jordan_mul(a, b), jordan_mul(b, a)
    aba = jordan_mul(ab, a)
    assert ab == ba and (ab - ba).is_zero()
    assert aba != ab and not (aba - ab).is_zero()
    assert (a + b) - b == a and a != b


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
            return JordanElement(spec, [to(v) for v in x.coords()])

        # Fraction coordinates with mixed denominators
        fa = lift(a, lambda v: Fraction(v, rng.randint(1, 9)))
        fb = lift(b, lambda v: Fraction(v, rng.randint(1, 9)))
        assert jordan_mul(fa, fb) == dense_symmetric_product(fa, fb)
        # integral Fractions
        sq_values = tuple(map(Fraction, jordan_mul(a, a).coords()))
        assert all(isinstance(v, Fraction) for v in sq_values)
        sq = JordanElement(spec, sq_values)
        assert jordan_mul(sq, fb) == dense_symmetric_product(sq, fb)
        # floats stay floats, within rounding of the exact product
        xa, xb = lift(fa, float), lift(fb, float)
        got = jordan_mul(xa, xb).coords()
        assert all(type(v) is float for v in got)
        want = dense_symmetric_product(lift(xa, Fraction), lift(xb, Fraction))
        assert max(abs(g - w) for g, w in zip(got, want.coords())) < 1e-9


@pytest.mark.parametrize("k,delta", [(2, 4), (2, 8), (3, 4), (3, 8)])
def test_structure_constants_match_dense_oracle(k, delta):
    # the product is bilinear, so its values at basis pairs pin it; both
    # orders run, since the kernel's terms x_a y_b and x_b y_a differ
    spec = JordanSpec(k, delta)
    basis = [basis_element(spec, i) for i in range(spec.dim)]
    for a in range(spec.dim):
        for b in range(a, spec.dim):
            want = dense_symmetric_product(basis[a], basis[b])
            assert jordan_mul(basis[a], basis[b]) == want, (a, b)
            assert jordan_mul(basis[b], basis[a]) == want, (b, a)


@pytest.mark.parametrize("k,longest", [(4, 52), (5, 68)])
def test_kernel_at_long_coordinates(k, longest):
    # on symbolic coordinates each result coordinate is the sum of its
    # kernel terms; at (5,8) the longest is longer than one group of the
    # generated sums, and the kernel still matches the oracle
    spec = JordanSpec(k, 8)
    n = spec.dim
    ungraded = _grading([()] * (2 * n), 0)
    x = tuple(_Poly({(i,): 1}, ungraded) for i in range(n))
    y = tuple(_Poly({(n + i,): 1}, ungraded) for i in range(n))
    sym = jordan_module._sym_product(spec, x, y)
    assert max(len(p.terms) for p in sym) == longest
    assert (longest > _GROUP) == (k == 5)
    rng = stream_rng(9, "long", k)
    for _ in range(2):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        assert jordan_mul(a, b) == dense_symmetric_product(a, b)


# sha256 of repr(norm_form(spec).terms). The first five were recorded with
# the earlier grid-matrix product, so the symbolic route through the kernel
# keeps Q; the degree-5 to degree-7 ones with the full expansion, before
# the table was expanded modulo its index weights
Q_TABLE_SHA256 = {
    (2, 1): "c1d41a91b1b9795f8c3c71c40d4732f358a92b386ef2b82997ad4d5b884b3d70",
    (2, 8): "9082c53b72a837a62119f19b1a513f2a20bc8556da83e1488a8c3417e0ae2467",
    (3, 4): "9cafeb2802c6eab21d7ccf2dfa4a51933b26255ff5969e57aaf05142b34fa911",
    (3, 8): "ff2b1b8743726e2640db11248b2929e38d69f5aa8bb7f99a49ed9e474444f683",
    (4, 1): "c26eeae25a26624179ad2192cc1cc916fb022ad07f84dd5473340e5729f38342",
    (4, 2): "8a7ed0c1f73e19afbb971f7c913a9ef27bea29c857adaaeda6209e561cf8f24b",
    (4, 4): "123e8ce7e89646a3c6ba5a81a4080f230facb45b001884fe86721d12712a304a",
    (5, 1): "26315410b4412a235347ccfac60d5c5b4c14f6a5a9368df5dbd5ac535fbf1144",
    (5, 2): "7d622e7aea498aed1ff8a9114baa9f3a34ecd5bb6213bcbd90fc6a2c9e0e12a3",
    (6, 1): "e9863ec6ae98ee19049f7df96e9fc90cf97a2ab67811ed874c8b06b4cb2404c6",
}


@pytest.mark.parametrize("shape", sorted(Q_TABLE_SHA256))
def test_norm_table_is_pinned(shape):
    terms = norm_form(JordanSpec(*shape)).terms
    assert sha256(repr(terms).encode()).hexdigest() == Q_TABLE_SHA256[shape]


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
    # integer-only Newton recursion on traces paired from half powers, both
    # on the element (char_coeffs) and on symbolic coordinates (the table of
    # norm_form), vs the Fraction recursion on traces of left-iterated Jordan
    # products; at (3,8), which is not Jordan, the routes agree only by the
    # associativity of the trace form
    for (k, delta) in ALL_SPECS + [(3, 8)]:
        spec = JordanSpec(k, delta)
        form = norm_form(spec)
        rng = stream_rng(4, "newton", k, delta)
        for _ in range(4):
            a = random_element(spec, rng)
            sigma = char_coeffs(a)
            p = power_traces(a, spec.degree)
            expected = newton_coeffs(p, spec.degree)
            # integer inputs give exact integer coefficients
            assert all(s.denominator == 1 for s in sigma)
            assert tuple(sigma) == tuple(expected)
            assert form(a.cleared) == expected[-1]
            assert sigma[0] == sum(a.grid()[i][i][0] for i in range(spec.size))


def test_norm_against_leibniz_determinant():
    # permutation-sum determinant is available for real and complex entries
    for (k, delta) in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]:
        spec = JordanSpec(k, delta)
        rng = stream_rng(5, "leibniz", k, delta)
        for _ in range(4):
            a = random_element(spec, rng)
            assert char_coeffs(a)[-1] == leibniz_det(a.grid(), spec.size, delta)


@pytest.mark.parametrize("delta", [1, 2, 4, 8])
def test_norm_against_freudenthal_cubic(delta):
    # Q at k = 2 by Freudenthal's closed formula, against the element route
    # (char_coeffs) and the frame's form (Q's table), on integer and on
    # Fraction coordinates
    spec = JordanSpec(2, delta)
    form = frame(spec).form
    rng = stream_rng(8, "freudenthal", delta)
    for t in range(8):
        a = random_element(spec, rng)
        if t % 2:
            a = JordanElement(spec, [Fraction(v, 1 + (i + t) % 5)
                                     for i, v in enumerate(a.coords())])
        assert char_coeffs(a)[-1] == freudenthal_norm(a)
        assert form(a.cleared) == freudenthal_norm(a)


def test_norm_against_gauss_determinant():
    # real symmetric case only: grids are plain scalar matrices; both the
    # element route (char_coeffs) and the coordinate form (norm_form, the
    # one that is polarized) must give the determinant
    for k in (2, 3, 4, 5):
        spec = JordanSpec(k, 1)
        form = norm_form(spec)
        rng = stream_rng(6, "gauss", k)
        for _ in range(4):
            a = random_element(spec, rng)
            rows = [[c[0] for c in row] for row in a.grid()]
            assert char_coeffs(a)[-1] == gauss_det(rows)
            assert form(a.cleared) == gauss_det(rows)
        mixed = JordanElement(
            spec, [Fraction(3 * i - 7, i % 4 + 2) for i in range(spec.dim)])
        rows = [[c[0] for c in row] for row in mixed.grid()]
        assert form(mixed.cleared) == gauss_det(rows)
        floats = [rng.uniform(-9, 9) for _ in range(spec.dim)]
        rows = [[c[0] for c in row]
                for row in JordanElement(spec, floats).grid()]
        value = form((tuple(floats), 1))
        assert isinstance(value, float)
        assert value == pytest.approx(float(gauss_det(rows)), rel=1e-9)


def test_norm_homogeneity():
    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(7, "homog", k, delta)
        a = random_element(spec, rng)
        t = rng.randint(2, 7)
        assert char_coeffs(a.scale(t))[-1] == t ** spec.degree * char_coeffs(a)[-1]
        sigma = char_coeffs(a.scale(t))
        for j, s in enumerate(sigma, start=1):
            assert s == t ** j * char_coeffs(a)[j - 1]


def test_jordan_rank():
    spec = JordanSpec(3, 2)
    assert jordan_rank(JordanElement(spec, (0,) * spec.dim)) == 0
    assert jordan_rank(identity(spec)) == spec.degree
    assert jordan_rank(diagonal_element(spec, [5, 0, 0, 0])) == 1
    assert jordan_rank(diagonal_element(spec, [5, -2, 0, 0])) == 2
    assert jordan_rank(diagonal_element(spec, [5, -2, 1, 0])) == 3
    # float backend with tolerance
    a = diagonal_element(spec, [1, 1, 0, 0])
    af = JordanElement(spec, [float(c) for c in a.coords()])
    assert jordan_rank(af, FloatBackend(1e-9)) == 2


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
        two_m2 = [[2 * v for v in row] for row in values(m.compose(m))]
        msq = values(mult_operator(jordan_mul(a, a)))
        assert values(p) == tuple(
            tuple(x - y for x, y in zip(r2, r1))
            for r2, r1 in zip(two_m2, msq))
        e2 = vector_values(p.apply(*identity(spec).cleared))
        assert JordanElement(spec, e2) == jordan_mul(a, a)


def test_quadratic_rep_matches_operator_product():
    # second route: P(A) = 2 M_A o M_A - M_{A^2} from the dense operators,
    # combined over one denominator; the library builds P(A) from its action
    # B -> 2 A*(A*B) - A^2*B, and both must give the same numerators over
    # the same denominator
    def product_route(a):
        m, m2 = mult_operator(a), mult_operator(jordan_mul(a, a))
        mm = m.compose(m)
        d1, d2 = mm.denominator, m2.denominator
        nums = tuple(tuple(2 * d2 * x - d1 * y for x, y in zip(r1, r2))
                     for r1, r2 in zip(mm.numerators, m2.numerators))
        return LinearOperator(nums, d1 * d2, "V", "V")

    for (k, delta) in [(2, 1), (2, 8), (3, 4), (4, 2)]:
        spec = JordanSpec(k, delta)
        rng = stream_rng(9, "quadrep-route", k, delta)
        ints = random_element(spec, rng)
        mixed = JordanElement(spec, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                     for _ in range(spec.dim)])
        floats = JordanElement(spec, [float(rng.randint(-9, 9)) for _ in range(spec.dim)])
        assert mixed.cleared[1] > 1
        assert all(type(v) is float for v in floats.cleared[0])
        for a in (ints, mixed, floats):
            p, q = quadratic_rep(a), product_route(a)
            assert p.numerators == q.numerators
            assert p.denominator == q.denominator
            assert (p.domain, p.codomain) == ("V", "V")


def test_jordan_identity_residual():
    # the two sides jordan-identity compares and jordan-violation subtracts:
    # equal on the honest algebras, apart on the octonion 4x4 shape
    def residual(a, b):
        lhs, rhs = _jordan_sides(None, a, b)
        return (lhs - rhs).max_abs()

    for (k, delta) in ALL_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(10, "jid", k, delta)
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        assert residual(a, b) == 0
    bad = JordanSpec(3, 8)
    rng = stream_rng(10, "jid", 3, 8)
    residuals = [residual(random_element(bad, rng), random_element(bad, rng))
                 for _ in range(5)]
    assert any(r != 0 for r in residuals)
