"""The exact backend's element comparison.

``ExactBackend.close_elements`` answers equal elements without subtracting;
its outcome must be the one the subtraction gives, err the int 0. Unequal
elements keep the subtraction's err: the largest coordinate difference.
"""

from fractions import Fraction

from jordal.backend import EXACT, TrialOutcome
from jordal.jordan import JordanElement, JordanSpec, random_element
from jordal.rng import stream_rng

SPEC = JordanSpec(3, 4)


def subtraction_outcome(lhs, rhs):
    return EXACT.small((lhs - rhs).max_abs(), None)


def largest_difference(lhs, rhs):
    return max(abs(Fraction(x) - Fraction(y)) for x, y in zip(lhs.coords(), rhs.coords()))


def test_equal_elements_give_the_subtraction_outcome():
    rng = stream_rng(90, "backend-equal")
    for den in (1, 2, 7):
        a = random_element(SPEC, rng).scale(Fraction(1, den))
        b = JordanElement(SPEC, a.coords())
        got = EXACT.close_elements(a, b)
        assert got == subtraction_outcome(a, b) == TrialOutcome(True, 0)
        assert type(got.err) is int


def test_unequal_elements_keep_the_subtraction_err():
    rng = stream_rng(91, "backend-unequal")
    for da, db in ((1, 1), (3, 3), (2, 3), (1, 5)):
        a = random_element(SPEC, rng).scale(Fraction(1, da))
        b = random_element(SPEC, rng).scale(Fraction(1, db))
        assert a != b
        got, want = EXACT.close_elements(a, b), subtraction_outcome(a, b)
        assert got == want and type(got.err) is type(want.err)
        assert not got.ok
        assert got.err == largest_difference(a, b) > 0
