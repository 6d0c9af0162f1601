"""Exact linear algebra audited against plain Fraction elimination, and
float linear algebra against numpy as an independent oracle."""

import random
from fractions import Fraction
from math import gcd

import numpy
import pytest

import jordal.linalg as linalg_module
from jordal.geometry import (expected_mult_kernel_dim, expected_tangent_rank,
                             sample_rank_one, tangent_frame, tangent_intersection)
from jordal.jordan import JordanElement, JordanSpec, mult_operator, quadratic_rep
from jordal.linalg import (
    LinearOperator,
    SingularMatrix,
    TagMismatch,
    clear_row_denominators,
    common_denominator,
    exact_det,
    exact_inverse,
    exact_nullspace,
    exact_rank,
    exact_solve,
    float_rank,
    float_slogdet,
    float_solve,
    mat_mul,
    mat_vec,
    over,
    total,
)
from jordal.reconstruction import frame, structural_map, tau
from jordal.rng import stream_rng
from oracles import (gauss_det, gauss_inverse, gauss_rank, gauss_solve,
                     identity_matrix, is_symmetric, operator, primitive_integer_vector,
                     proportional, transpose, transpose_op, values, vector_values)


def random_matrix(rng, nrows, ncols, rational=False, deficient=0):
    """Random integer or rational matrix, with planted row dependencies."""
    def cell():
        if rational and rng.random() < 0.3:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randint(-9, 9)

    rows = [[cell() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(deficient):
        # overwrite a row with a combination of two others
        i, j, t = rng.randrange(nrows), rng.randrange(nrows), rng.randrange(nrows)
        if len({i, j, t}) < 3 and nrows >= 3:
            continue
        c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[t] = [c1 * a + c2 * b for a, b in zip(rows[i], rows[j])]
    return rows


def as_fractions(nums, den):
    return tuple(tuple(Fraction(v, den) for v in row) for row in nums)


def matrix_kinds(rng):
    """(name, matrix) pairs covering each path of the elimination."""
    for n in range(1, 7):
        yield "rational", random_matrix(rng, n, n, rational=True)
        # the Gram matrix is diagonal in canonical coordinates
        yield "diagonal", [[Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
                            * rng.choice((1, -1)) if i == j else 0
                            for j in range(n)] for i in range(n)]
        lead = random_matrix(rng, n, n, rational=True)
        for row in lead:
            row[0] = 0
            if n > 2:
                row[1] = 0
        yield "leading-zero-columns", lead
        yield "singular", random_matrix(rng, n, n, deficient=2)
    for _ in range(5):
        yield "tall-deficient", random_matrix(rng, 12, 7, deficient=5)


def test_elimination_against_oracles():
    rng = random.Random(106)
    seen = set()
    for kind, m in matrix_kinds(rng):
        seen.add(kind)
        rank = gauss_rank(m)
        assert exact_rank(m) == rank, kind
        basis = exact_nullspace(m)
        assert len(basis) == len(m[0]) - rank, kind
        assert all(sum(a * b for a, b in zip(row, vec)) == 0
                   for row in m for vec in basis), kind
        if len(m) != len(m[0]):
            continue
        det = gauss_det(m)
        assert exact_det(m) == det, kind
        if det == 0:
            with pytest.raises(SingularMatrix):
                exact_inverse(m)
            continue
        nums, den = exact_inverse(m)
        assert den > 0 and all(type(v) is int for row in nums for v in row)
        assert as_fractions(nums, den) == gauss_inverse(m), kind
    assert seen == {"rational", "diagonal", "leading-zero-columns", "singular",
                    "tall-deficient"}


def test_det_sign_under_row_swaps():
    rng = random.Random(107)
    for n in range(2, 7):
        m = random_matrix(rng, n, n, rational=True)
        d = exact_det(m)
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
            d = -d
            assert exact_det(m) == d == gauss_det(m)


def test_rank_randomized_audit():
    rng = random.Random(100)
    for trial in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        m = random_matrix(rng, nrows, ncols,
                          rational=trial % 2 == 0,
                          deficient=rng.randint(0, 2))
        assert exact_rank(m) == gauss_rank(m)


def test_rank_tall_deficient():
    # the shape class that exposed a historical elimination bug: many rows,
    # heavy planted dependencies, entries of mixed magnitude
    rng = random.Random(101)
    for _ in range(20):
        m = random_matrix(rng, 12, 7, deficient=5)
        assert exact_rank(m) == gauss_rank(m)


def test_rank_tangent_frame_regression():
    # octonion tangent frames miscomputed as rank 14 once; true rank is 17
    spec = JordanSpec(2, 8)
    rng = random.Random(102)
    for _ in range(3):
        rows = tangent_frame(sample_rank_one(spec, rng))
        r = exact_rank(rows)
        assert r == 17
        assert r == gauss_rank(rows)
        assert r == numpy.linalg.matrix_rank(
            numpy.array([[float(v) for v in row] for row in rows]))


def test_nullspace():
    rng = random.Random(103)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols, deficient=rng.randint(0, 2))
        basis = exact_nullspace(m)
        assert len(basis) == ncols - exact_rank(m)
        for vec in basis:
            # a primitive int vector: int entries with gcd 1
            assert type(vec) is tuple and all(type(v) is int for v in vec)
            assert gcd(*vec) == 1
            assert any(v != 0 for v in vec)
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)
        # basis vectors are independent
        if basis:
            assert exact_rank(list(basis)) == len(basis)
    # no rows: no columns to count, so no basis
    assert exact_nullspace([]) == []


@pytest.mark.parametrize("k, delta", [(2, 8), (3, 4)])
def test_exact_linear_algebra_builds_no_fraction(k, delta, monkeypatch):
    # operators and the elimination run on int numerators; the frame's Gram
    # data (whose determinant leaves as a Fraction) is built beforehand
    spec = JordanSpec(k, delta)
    fr = frame(spec)
    assert fr.gram is not None
    rng = stream_rng(14, "linalg-nofraction", k, delta)
    a = fr.random_invertible(rng)
    xa, xb = sample_rank_one(spec, rng), sample_rank_one(spec, rng)

    def no_fraction(*args, **kwargs):
        raise AssertionError("built a Fraction")

    monkeypatch.setattr(linalg_module, "Fraction", no_fraction)
    mult = mult_operator(xa.element)
    assert exact_rank(mult.numerators) == spec.dim - expected_mult_kernel_dim(spec)
    for op in (quadratic_rep(a), tau(fr, a), structural_map(fr, a)):
        assert exact_rank(op.numerators) == spec.dim
    rows = tangent_frame(xa)
    basis = exact_nullspace(rows)
    assert len(basis) == spec.dim - expected_tangent_rank(spec)
    assert all(type(v) is int for vec in basis for v in vec)
    assert mat_mul(rows, transpose(basis)) == ((0,) * len(basis),) * len(rows)
    assert len(tangent_intersection(xa, xb)) == delta


def test_det_against_oracles():
    rng = random.Random(104)
    for n in range(1, 7):
        for _ in range(8):
            m = random_matrix(rng, n, n, rational=n % 2 == 0)
            d = exact_det(m)
            assert d == gauss_det(m)
            if all(isinstance(v, int) for row in m for v in row):
                nd = numpy.linalg.det(numpy.array(m, dtype=float))
                assert abs(float(d) - nd) < 1e-6 * (1 + abs(nd))


def test_det_singular():
    m = [[1, 2], [2, 4]]
    assert exact_det(m) == 0


def test_solve_and_inverse():
    rng = random.Random(105)
    for n in range(1, 7):
        for _ in range(6):
            m = random_matrix(rng, n, n, rational=True)
            if exact_det(m) == 0:
                continue
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            x = vector_values(exact_solve(m, rhs))
            assert list(x) == gauss_solve(m, rhs)
            assert [sum(a * b for a, b in zip(row, x)) for row in m] == list(rhs)
            inv = as_fractions(*exact_inverse(m))
            assert mat_mul(m, inv) == identity_matrix(n)
            assert mat_mul(inv, m) == identity_matrix(n)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        exact_solve([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(SingularMatrix):
        exact_inverse([[0, 0], [0, 0]])


def test_integer_normalization_helpers():
    assert common_denominator([Fraction(1, 2), Fraction(1, 3), 4]) == 6
    assert common_denominator([1, 2, 3]) == 1
    m = [clear_row_denominators(row)[0]
         for row in [[Fraction(1, 2), 1], [2, Fraction(1, 3)]]]
    assert all(isinstance(v, int) for row in m for v in row)
    # one shared denominator; integral Fractions come back as plain ints
    for row, want in (([Fraction(1, 2), Fraction(2, 3), 5], ((3, 4, 30), 6)),
                      ([Fraction(4), 2, Fraction(-6, 3)], ((4, 2, -2), 1))):
        nums, d = clear_row_denominators(row)
        assert (nums, d) == want
        assert type(nums) is tuple
        assert all(type(v) is int for v in nums)
    # row scalings preserve rank
    assert exact_rank(m) == 2
    assert primitive_integer_vector([Fraction(2, 3), Fraction(4, 3)]) == (1, 2)
    # content is divided out, sign of the entries is kept
    assert primitive_integer_vector([-2, -4, -6]) == (-1, -2, -3)
    assert primitive_integer_vector([0, 0]) == (0, 0)


def test_clear_row_denominators_keeps_float_rows():
    # float mode: the row passes through as given, never truncated to ints
    nums, d = clear_row_denominators([0.5, 2.5])
    assert (nums, d) == ((0.5, 2.5), 1)
    assert all(type(v) is float for v in nums)


def test_over():
    # int numerators over an int denominator come back in lowest terms
    assert over((4, -6, 0), 8) == ((2, -3, 0), 4)
    assert over((3, 5), 7) == ((3, 5), 7)
    nums, den = over((6, 9), 3)
    assert (nums, den) == ((2, 3), 1) and all(type(v) is int for v in nums)
    # over 1 the numerators come back as given, floats or ints
    for nums in ((1, 2), (0.5, 2.5), (1, 0.5)):
        assert over(nums, 1) == (nums, 1) and over(nums, 1)[0] is nums
    # float numerators, alone or among ints, are divided through: floats over 1
    for nums in ((1.0, -3.0), (1, 0.5, 0)):
        got, den = over(nums, 4)
        assert den == 1 and got == tuple(v / 4 for v in nums)
        assert all(type(v) is float for v in got)
    # a float denominator divides int numerators too
    got, den = over((3, -6), 2.0)
    assert (got, den) == ((1.5, -3.0), 1) and all(type(v) is float for v in got)
    # any other type is neither format: a Fraction numerator or denominator
    # raises instead of turning into floats
    for nums, den in (((Fraction(1, 2), 0), 2), ((1, 0.5), Fraction(1, 3))):
        with pytest.raises(TypeError, match="got Fraction"):
            over(nums, den)


def test_proportional():
    assert proportional((2, 4, 6), (3, 6, 9))
    assert proportional((0, 0), (0, 0))
    assert not proportional((1, 0), (0, 1))
    assert not proportional((2, 4, 6), (3, 6, 10))
    assert proportional((Fraction(1, 2), 1), (2, 4))


def test_mat_helpers():
    m = [[1, 2], [3, 4], [5, 6]]
    assert transpose(m) == ((1, 3, 5), (2, 4, 6))
    assert mat_vec(m, (1, 1)) == (3, 7, 11)


def test_linear_operator_tags_and_compose():
    # tags track whether an operator lands in coordinates or covectors
    a = operator(((1, 1), (0, 1)), "V", "V*")
    b = operator(((2, 0), (0, 3)), "V*", "V")
    c = b.compose(a)  # first a, then b: V -> V
    assert c.domain == "V" and c.codomain == "V"
    assert c.apply((1, 0), 1) == ((2, 0), 1)
    with pytest.raises(TagMismatch):
        a.compose(a)
    t = transpose_op(a)
    assert t.domain == "V" and t.codomain == "V*"
    assert values(t) == transpose(values(a))
    sym = operator(((2, 5), (5, 1)))
    assert is_symmetric(values(sym))
    assert not is_symmetric(values(a))
    assert exact_det(values(sym)) == 2 * 1 - 25
    assert sym.trace() == 3


def test_linear_operator_numerators():
    # exact entries are int numerators over one denominator in lowest terms
    a = operator(((Fraction(1, 2), 0), (Fraction(3, 4), 1)))
    assert a.numerators == ((2, 0), (3, 4)) and a.denominator == 4
    b = LinearOperator(((6, 0), (0, 4)), 8, "V", "V")
    assert b.numerators == ((3, 0), (0, 2)) and b.denominator == 4
    c = a.compose(b)
    assert values(c) == mat_mul(values(a), values(b))
    assert all(type(v) is int for row in c.numerators for v in row)
    assert vector_values(c.apply((3, 1), 3)) == mat_vec(values(c), (1, Fraction(1, 3)))
    assert c.trace() == Fraction(3, 8) + Fraction(1, 2)
    # a float factor takes the denominator in: floats over 1
    f = operator(((0.5, 1.5), (2.0, -1.0)))
    assert f.denominator == 1
    for op in (a.compose(f), f.compose(a)):
        assert op.denominator == 1
        assert all(type(v) is float for row in op.numerators for v in row)
    assert values(a.compose(f)) == ((0.25, 0.75), (0.375 + 2.0, 1.125 - 1.0))
    image, den = a.apply((1.0, 3.0), 1)
    assert den == 1 and all(type(v) is float for v in image)
    assert image == (0.5, 0.75 + 3.0)


def float_matrix(rng, nrows, ncols, scale=1.0):
    """Random floats with rounding in them: no entry is a small integer."""
    return [[rng.uniform(-scale, scale) for _ in range(ncols)] for _ in range(nrows)]


def test_float_rank_of_low_rank_products():
    # B C with B m x r and C r x n has rank r; its entries carry rounding
    rng = random.Random(108)
    for _ in range(120):
        m, n = rng.randint(2, 30), rng.randint(2, 30)
        r = rng.randint(0, min(m, n))
        rows = (numpy.array(float_matrix(rng, m, r)).reshape(m, r)
                @ numpy.array(float_matrix(rng, r, n)).reshape(r, n)).tolist()
        assert float_rank(rows) == r == numpy.linalg.matrix_rank(rows), (m, n, r)
    assert float_rank([]) == 0
    assert float_rank([[0.0, 0.0]]) == 0


def test_float_solve_against_numpy():
    rng = random.Random(109)
    for n in range(1, 13):
        m = float_matrix(rng, n, n)
        rhs = [rng.uniform(-9, 9) for _ in range(n)]
        x, den = float_solve(m, rhs)
        assert den == 1 and all(type(v) is float for v in x)
        assert numpy.allclose(x, numpy.linalg.solve(m, rhs), rtol=1e-9, atol=1e-12)
    with pytest.raises(SingularMatrix):
        float_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_float_slogdet_against_numpy():
    rng = random.Random(110)
    cases = [float_matrix(rng, n, n) for n in range(1, 13)]
    # det about 1e385 leaves the float range; its logarithm does not
    cases.append(float_matrix(rng, 60, 60, scale=1e6))
    for m in cases:
        sign, log_det = float_slogdet(m)
        want_sign, want_log = numpy.linalg.slogdet(numpy.array(m))
        assert sign == want_sign
        assert abs(log_det - want_log) <= 1e-9 * (1 + abs(want_log))
    assert float_slogdet(cases[-1])[1] > 800
    assert float_slogdet([]) == (1, 0)
    # the third row is the sum of the first two
    assert float_slogdet([[0.5, 1.5, 2.0], [1.25, -0.75, 3.0],
                          [1.75, 0.75, 5.0]]) == (0, -numpy.inf)


def test_float_sums_run_left_to_right():
    # builtin sum compensates float sums from Python 3.12 on and gives 1.0
    cancel = (1e16, 1.0, -1e16)
    assert total(cancel) == 0.0
    assert total([1, 2, Fraction(1, 2)]) == Fraction(7, 2)
    assert mat_vec(((1, 1, 1),), cancel) == (0.0,)
    spec = JordanSpec(2, 1)
    x = JordanElement(spec, cancel + (0.0,) * (spec.dim - 3))
    assert x.dot((1,) * spec.dim, 1) == 0.0
