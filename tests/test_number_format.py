"""Covectors, operator images and combinations leave in one number format.

covector_slot, LinearOperator.apply, tau_covector, linalg.combine and both
backends' solve return a vector as (numerators, denominator): for exact
inputs, int numerators over a positive int denominator in lowest terms; once
a float is involved, floats over 1. A float among Fraction coefficients gives
floats, never Fractions.
"""

from fractions import Fraction
from math import gcd

import pytest

from jordal.backend import EXACT, FloatBackend
from jordal.jordan import JordanElement, JordanSpec, random_element
from jordal.linalg import combine
from jordal.polarization import covector_slot
from jordal.reconstruction import frame, tau, tau_covector
from jordal.rng import stream_rng
from oracles import vector_values


def assert_exact(pair):
    nums, den = pair
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    assert gcd(den, *nums) == 1


def assert_float(pair):
    nums, den = pair
    assert type(den) is int and den == 1
    assert all(type(v) is float for v in nums)


def fractional(spec, rng):
    """An element with coordinates over small denominators."""
    return JordanElement(spec, [Fraction(v, rng.randint(1, 6))
                                for v in random_element(spec, rng).coords()])


def floats(e):
    return JordanElement(e.spec, [float(v) for v in e.coords()])


@pytest.mark.parametrize("k,delta", [(2, 2), (3, 1)])
def test_exact_inputs_give_ints_in_lowest_terms(k, delta):
    spec = JordanSpec(k, delta)
    fr = frame(spec)
    rng = stream_rng(71, "format", k, delta)
    m = fr.random_invertible(rng)
    a, x = fractional(spec, rng), random_element(spec, rng)
    pairs = [covector_slot(fr.form, [a.cleared] * (fr.q - 1)),
             covector_slot(fr.form, [m.cleared] * (fr.q - 2) + [x.cleared]),
             fr.unit_covector,
             fr.gram_inv.apply(*a.cleared),
             tau(fr, m).apply(*x.cleared),
             tau_covector(fr, m, a)]
    for pair in pairs:
        assert_exact(pair)
    # a fractional argument leaves a denominator to reduce
    assert any(den > 1 for _, den in pairs)


@pytest.mark.parametrize("k,delta", [(2, 2), (3, 1)])
def test_float_inputs_give_floats_over_one(k, delta):
    spec = JordanSpec(k, delta)
    fr = frame(spec)
    rng = stream_rng(72, "format", k, delta)
    m = floats(fr.random_invertible(rng))
    a, x = floats(fractional(spec, rng)), floats(random_element(spec, rng))
    for pair in (covector_slot(fr.form, [a.cleared] * (fr.q - 1)),
                 covector_slot(fr.form, [m.cleared] * (fr.q - 2) + [x.cleared]),
                 fr.gram_inv.apply(*a.cleared),
                 tau(fr, m).apply(*x.cleared),
                 tau_covector(fr, m, a)):
        assert_float(pair)


def test_combine_clears_its_coefficients():
    u, v, w = ((3, -1, 4), 2), ((1, 5, -9), 7), ((2, 6, 5), 1)
    exact = combine((Fraction(1, 3), -2, Fraction(7, 4)), (u, v, w))
    assert_exact(exact)
    want = [Fraction(1, 3) * Fraction(p, 2) - 2 * Fraction(q, 7) + Fraction(7, 4) * r
            for p, q, r in zip(u[0], v[0], w[0])]
    assert list(vector_values(exact)) == want
    mixed = combine((Fraction(1, 3), 0.5, Fraction(2, 7)), (u, v, w))
    assert_float(mixed)
    assert vector_values(mixed) == pytest.approx([float(x) for x in (
        Fraction(1, 3) * Fraction(p, 2) + Fraction(1, 2) * Fraction(q, 7)
        + Fraction(2, 7) * r for p, q, r in zip(u[0], v[0], w[0]))])


def test_both_backends_solve_to_pairs():
    rows, rhs = [[2, 1], [1, 3]], [1, 2]
    exact = EXACT.solve(rows, rhs)
    assert_exact(exact)
    assert list(vector_values(exact)) == [Fraction(1, 5), Fraction(3, 5)]
    floated = FloatBackend(1e-8).solve(rows, rhs)
    assert_float(floated)
    assert list(vector_values(floated)) == pytest.approx([0.2, 0.6])
