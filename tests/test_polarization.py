"""Polarization machinery on forms with hand-checkable polarizations."""

from fractions import Fraction

import numpy
import pytest

from jordal.jordan import JordanSpec, norm_form
from jordal.polarization import (
    ArityError,
    PolarizedForm,
    covector_slot,
    derivative_at_zero_weights,
    full_polarize,
    partial_polarize,
)
from jordal.rng import sample_coords, stream_rng


def cube_form():
    # F(x, y) = x^3 + y^3: full polarization is (x1 x2 x3 + y1 y2 y3)
    return PolarizedForm(3, 2, lambda v: v[0] ** 3 + v[1] ** 3, name="cubes")


def test_known_full_polarization():
    f = cube_form()
    args = [(1, 2), (3, 5), (7, 11)]
    expected = 1 * 3 * 7 + 2 * 5 * 11
    assert full_polarize(f, args) == expected


def test_monomial_polarization():
    # F = x y z has full polarization perm(args) / 3!
    f = PolarizedForm(3, 3, lambda v: v[0] * v[1] * v[2], name="xyz")
    a, b, c = (1, 0, 2), (0, 3, 1), (4, 1, 0)
    perm = 0
    for p in [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        perm += p[0][0] * p[1][1] * p[2][2]
    assert full_polarize(f, [a, b, c]) == Fraction(perm, 6)


def test_collapse_to_form_value():
    # all slots equal recovers the plain value, for full and partial routes
    f = cube_form()
    x = (2, -3)
    assert full_polarize(f, [x, x, x]) == f(x)
    assert partial_polarize(f, x, 3, []) == f(x)
    assert partial_polarize(f, x, 2, [x]) == f(x)
    assert partial_polarize(f, x, 0, [x, x, x]) == f(x)


def test_partial_matches_full():
    for (k, delta) in [(2, 1), (2, 4), (3, 2)]:
        spec = JordanSpec(k, delta)
        form = norm_form(spec)
        rng = stream_rng(20, "partial", k, delta)
        q = spec.degree
        base = sample_coords(rng, spec.dim)
        rest = [sample_coords(rng, spec.dim) for _ in range(2)]
        full_args = [base] * (q - 2) + rest
        assert partial_polarize(form, base, q - 2, rest) == \
            full_polarize(form, full_args)


def test_symmetry_and_multilinearity():
    spec = JordanSpec(2, 2)
    form = norm_form(spec)
    rng = stream_rng(21, "multi")
    a, b, c = (sample_coords(rng, spec.dim) for _ in range(3))
    base = full_polarize(form, [a, b, c])
    assert full_polarize(form, [b, a, c]) == base
    assert full_polarize(form, [c, b, a]) == base
    scaled = tuple(5 * v for v in a)
    assert full_polarize(form, [scaled, b, c]) == 5 * base
    shifted = tuple(x + y for x, y in zip(a, c))
    assert full_polarize(form, [shifted, b, c]) == \
        base + full_polarize(form, [c, b, c])


def test_covector_slot_matches_partials():
    spec = JordanSpec(2, 1)
    form = norm_form(spec)
    rng = stream_rng(22, "cov")
    a = sample_coords(rng, spec.dim)
    b = sample_coords(rng, spec.dim)
    cov = covector_slot(form, [a, b])
    assert len(cov) == spec.dim
    for c in range(spec.dim):
        e_c = tuple(int(i == c) for i in range(spec.dim))
        assert cov[c] == full_polarize(form, [a, b, e_c])
    # pairing the covector against a vector equals the trilinear value
    x = sample_coords(rng, spec.dim)
    assert sum(w * v for w, v in zip(cov, x)) == full_polarize(form, [a, b, x])


def test_rational_arguments():
    f = cube_form()
    x = (Fraction(1, 2), Fraction(-1, 3))
    assert f(x) == Fraction(1, 8) - Fraction(1, 27)
    assert partial_polarize(f, x, 2, [(1, 1)]) == \
        full_polarize(f, [x, x, (1, 1)])


def test_cache_rescales_to_integers():
    f = cube_form()
    value = f((Fraction(1, 2), Fraction(3, 2)))
    # only the cleared-denominator key hits the underlying function
    assert f.evaluations == 1
    assert (1, 3) in f._cache
    assert value == Fraction(1 + 27, 8)
    # a second call with equivalent rationals is a pure cache hit
    f((Fraction(2, 4), Fraction(3, 2)))
    assert f.evaluations == 1


@pytest.mark.parametrize("k,delta", [(2, 2), (2, 4)])
def test_float_and_exact_calls_keep_their_types(k, delta):
    # 1.0 == 1 and hash(1.0) == hash(1): the cache must still answer an
    # exact vector exactly and a float vector in floats, in either order
    norm = norm_form(JordanSpec(k, delta))
    form = PolarizedForm(norm.degree, norm.dim, norm.func, name="fresh")
    ints = tuple(sample_coords(stream_rng(23, "types", k, delta), norm.dim))
    floats = tuple(float(v) for v in ints)
    exact = form(ints)
    assert isinstance(exact, Fraction)
    assert type(form(floats)) is float
    assert form(ints) == exact and isinstance(form(ints), Fraction)
    # float subclasses such as numpy's are not exact either
    assert isinstance(form(tuple(numpy.float64(v) for v in ints)), float)
    other = PolarizedForm(norm.degree, norm.dim, norm.func, name="fresh")
    assert type(other(floats)) is float
    assert other(ints) == exact and isinstance(other(ints), Fraction)


def test_cache_eviction():
    # a tiny cache forces constant eviction; no returned value may come
    # from a stale or evicted entry, and the cache never outgrows its size
    f = PolarizedForm(2, 2, lambda v: v[0] * v[0] + 3 * v[1] * v[1],
                      name="stress", cache_size=4)
    inputs = [(i % 13 - 6, (7 * i) % 11 - 5) for i in range(400)]
    for x, y in inputs:
        assert f((x, y)) == x * x + 3 * y * y
    assert len(f._cache) <= 4


def test_derivative_weights():
    # sum w_j p(x_j) = p'(0) exactly for polynomials below the node count
    nodes = (1, 2, 3)
    w = derivative_at_zero_weights(nodes)
    cases = [
        (lambda t: Fraction(5), 0),
        (lambda t: 2 * t - 7, 2),
        (lambda t: t * t - 4 * t + 1, -4),
    ]
    for poly, slope in cases:
        assert sum(wi * poly(u) for wi, u in zip(w, nodes)) == slope
    # second derivative weights from the same nodes
    w2 = derivative_at_zero_weights(nodes, order=2)
    assert sum(wi * (u * u - 4 * u + 1) for wi, u in zip(w2, nodes)) == 2


def test_arity_errors():
    f = cube_form()
    with pytest.raises(ArityError):
        f((1, 2, 3))
    with pytest.raises(ArityError):
        full_polarize(f, [(1, 0), (0, 1)])
    with pytest.raises(ArityError):
        partial_polarize(f, (1, 0), 2, [(0, 1), (1, 1)])
    with pytest.raises(ArityError):
        covector_slot(f, [(1, 0)])
