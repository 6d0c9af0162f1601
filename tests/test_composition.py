"""Composition algebra basics against the pair-recursion oracle."""

import random

import pytest

from jordal.composition import (
    ALLOWED_DIMS,
    DimensionMismatch,
    cd_conj,
    cd_mul,
    cd_norm,
    compile_bilinear,
    unit_table,
)
from oracles import basis_table, conj_half, doubled_mul


def cd_unit(delta, s):
    """The basis unit e_s as a coordinate tuple."""
    return tuple(int(i == s) for i in range(delta))


def associator(x, y, z, delta):
    """(xy)z - x(yz) on coordinate tuples."""
    return tuple(a - b for a, b in zip(cd_mul(cd_mul(x, y, delta), z, delta),
                                       cd_mul(x, cd_mul(y, z, delta), delta)))


def test_basis_table_conventions():
    t4 = basis_table(4)
    # e_1 e_2 = e_3 and anticommutativity of distinct imaginary units
    assert t4[1][2] == (3, 1)
    assert t4[2][1] == (3, -1)
    # imaginary units square to -1
    for i in range(1, 4):
        assert t4[i][i] == (0, -1)
    # e_0 is a two-sided unit at every dimension
    for delta in ALLOWED_DIMS:
        t = basis_table(delta)
        for i in range(delta):
            assert t[0][i] == (i, 1)
            assert t[i][0] == (i, 1)
    # the library's table and the kernel compiled from it multiply every
    # basis pair as the oracle's table says,
    # which by bilinearity pins every product
    for delta in ALLOWED_DIMS:
        t = basis_table(delta)
        for i in range(delta):
            for j in range(delta):
                k, s = t[i][j]
                expected = tuple(s * v for v in cd_unit(delta, k))
                assert unit_table(delta)[i][j] == (k, s)
                assert cd_mul(cd_unit(delta, i), cd_unit(delta, j), delta) == expected


def test_doubling_index_rule():
    # e_{i + d/2} = e_i e_{d/2} at each doubling level
    for delta in (2, 4, 8):
        half = delta // 2
        for i in range(half):
            ei = cd_unit(delta, i)
            eh = cd_unit(delta, half)
            assert cd_mul(ei, eh, delta) == cd_unit(delta, i + half)


def test_table_matches_pair_recursion():
    rng = random.Random(7)
    for delta in ALLOWED_DIMS:
        for _ in range(30):
            x = tuple(rng.randint(-9, 9) for _ in range(delta))
            y = tuple(rng.randint(-9, 9) for _ in range(delta))
            assert cd_mul(x, y, delta) == doubled_mul(x, y)


def test_conjugation():
    rng = random.Random(3)
    for delta in ALLOWED_DIMS:
        x = tuple(rng.randint(-9, 9) for _ in range(delta))
        y = tuple(rng.randint(-9, 9) for _ in range(delta))
        assert cd_conj(x) == conj_half(x)
        # conj is an anti-automorphism
        assert cd_conj(cd_mul(x, y, delta)) == cd_mul(cd_conj(y), cd_conj(x), delta)
        # x conj(x) is the norm times the unit
        n = cd_norm(x)
        assert cd_mul(x, cd_conj(x), delta) == (n,) + (0,) * (delta - 1)


def test_norm_multiplicativity():
    rng = random.Random(11)
    for delta in ALLOWED_DIMS:
        for _ in range(40):
            x = tuple(rng.randint(-9, 9) for _ in range(delta))
            y = tuple(rng.randint(-9, 9) for _ in range(delta))
            assert cd_norm(cd_mul(x, y, delta)) == cd_norm(x) * cd_norm(y)


def test_associativity_threshold():
    # dimensions up to 4 associate; dimension 8 has an explicit witness
    rng = random.Random(5)
    for delta in (1, 2, 4):
        for _ in range(20):
            x, y, z = (tuple(rng.randint(-5, 5) for _ in range(delta))
                       for _ in range(3))
            assert associator(x, y, z, delta) == (0,) * delta
    e1, e2, e4 = cd_unit(8, 1), cd_unit(8, 2), cd_unit(8, 4)
    # (e1 e2) e4 = e7 but e1 (e2 e4) = -e7
    assert cd_mul(cd_mul(e1, e2, 8), e4, 8) == cd_unit(8, 7)
    assert cd_mul(e1, cd_mul(e2, e4, 8), 8) == tuple(-v for v in cd_unit(8, 7))
    assert associator(e1, e2, e4, 8) != (0,) * 8


def test_alternativity_in_dimension_eight():
    # x(xy) = (xx)y even without associativity
    rng = random.Random(13)
    for _ in range(25):
        x = tuple(rng.randint(-6, 6) for _ in range(8))
        y = tuple(rng.randint(-6, 6) for _ in range(8))
        assert cd_mul(x, cd_mul(x, y, 8), 8) == cd_mul(cd_mul(x, x, 8), y, 8)
        assert cd_mul(cd_mul(y, x, 8), x, 8) == cd_mul(y, cd_mul(x, x, 8), 8)


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        cd_mul((1, 2, 3), (1, 2, 3), 3)


def test_long_sums_compile():
    # CPython's compiler recurses once per + of a chain; the generated sums
    # are grouped, so a coordinate of 5000 terms (three levels of groups)
    # compiles and sums like the plain loop
    n = 5000
    f = compile_bilinear(1, n, [[(1 if b % 3 else -2, 0, b) for b in range(n)]])
    y = tuple(range(n))
    assert f((3,), y) == (sum(3 * v if v % 3 else -6 * v for v in y),)
