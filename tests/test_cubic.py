"""Degree-3 special identities: adjoints, reductions, power words."""

from fractions import Fraction

import pytest

import jordal.cubic as cubic
from jordal.cubic import (
    adjoint,
    bracketing_residual,
    bracketings,
    cayley_hamilton_sides,
    comatrix_product_sides,
    double_adjoint_sides,
    fourth_power_residuals,
    mixed_adjoint_sides,
    power_words,
    scalar_reduction_sides,
    square_decomposition_sides,
    unit_reduction_sides,
)
from jordal.geometry import sample_rank_one
from jordal.jordan import (
    JordanElement,
    JordanSpec,
    identity,
    jordan_mul,
    jordan_rank,
    random_element,
)
from jordal.polarization import ArityError
from jordal.reconstruction import frame
from jordal.rng import stream_rng
from oracles import (classical_adjugate, diagonal_element, freudenthal_adjoint,
                     jordan_power)

DELTAS = (1, 2, 4, 8)


def cubic_frame(delta):
    return frame(JordanSpec(2, delta))


def test_requires_degree_three():
    # the polarizations behind every cubic identity reject a quartic norm
    spec = JordanSpec(3, 1)
    with pytest.raises(ArityError):
        adjoint(frame(spec), identity(spec))
    # the power words read only trilinear values, no covector
    with pytest.raises(ArityError, match="needs a cubic norm"):
        power_words(frame(spec), identity(spec), 3)


def test_adjoint_of_unit():
    for delta in DELTAS:
        fr = cubic_frame(delta)
        e = identity(fr.spec)
        assert adjoint(fr, e) == e


def test_adjoint_matches_classical_adjugate():
    # scalar case: cofactor expansion is an independent route
    spec = JordanSpec(2, 1)
    fr = frame(spec)
    rng = stream_rng(80, "adj")
    for _ in range(8):
        a = random_element(spec, rng)
        assert adjoint(fr, a) == classical_adjugate(spec, a)


@pytest.mark.parametrize("delta", DELTAS)
def test_adjoint_matches_freudenthal(delta):
    # Freudenthal's closed cross product, with no polarization, against the
    # covector pass raised through the Gram matrix, on integer and Fraction
    # coordinates
    fr = cubic_frame(delta)
    rng = stream_rng(82, "freudenthal-adjoint", delta)
    for t in range(8):
        a = random_element(fr.spec, rng)
        if t % 2:
            a = JordanElement(fr.spec, [Fraction(v, 1 + (i + t) % 5)
                                        for i, v in enumerate(a.coords())])
        assert adjoint(fr, a) == freudenthal_adjoint(a)


def test_adjoint_on_diagonal():
    # adj diag(a,b,c) = diag(bc, ac, ab) for every entry algebra
    for delta in DELTAS:
        fr = cubic_frame(delta)
        a = diagonal_element(fr.spec, [2, 3, 5])
        assert adjoint(fr, a) == diagonal_element(fr.spec, [15, 10, 6])


def test_comatrix_product():
    for delta in DELTAS:
        fr = cubic_frame(delta)
        rng = stream_rng(81, "com", delta)
        for _ in range(4):
            a = random_element(fr.spec, rng)
            lhs, rhs = comatrix_product_sides(fr, a)
            assert lhs == rhs


def test_double_adjoint():
    for delta in DELTAS:
        fr = cubic_frame(delta)
        rng = stream_rng(82, "dadj", delta)
        for _ in range(4):
            lhs, rhs = double_adjoint_sides(fr, random_element(fr.spec, rng))
            assert lhs == rhs


def test_mixed_adjoint():
    for delta in DELTAS:
        fr = cubic_frame(delta)
        rng = stream_rng(83, "mixed", delta)
        for _ in range(3):
            a = random_element(fr.spec, rng)
            b = random_element(fr.spec, rng)
            lhs, rhs = mixed_adjoint_sides(fr, a, b)
            assert lhs == rhs


def test_reduction_identities():
    for delta in DELTAS:
        fr = cubic_frame(delta)
        rng = stream_rng(84, "red", delta)
        for _ in range(3):
            a = random_element(fr.spec, rng)
            lhs, rhs = unit_reduction_sides(fr, a)
            assert lhs == rhs
            lhs, rhs = scalar_reduction_sides(fr, a)
            assert lhs == rhs


def test_square_decomposition():
    for delta in DELTAS:
        fr = cubic_frame(delta)
        rng = stream_rng(85, "sq", delta)
        a = random_element(fr.spec, rng)
        lhs, rhs = square_decomposition_sides(fr, a)
        assert lhs == rhs


def test_cayley_hamilton_and_fourth_power():
    for delta in DELTAS:
        fr = cubic_frame(delta)
        rng = stream_rng(86, "ch", delta)
        for _ in range(3):
            a = random_element(fr.spec, rng)
            lhs, rhs = cayley_hamilton_sides(fr, a)
            assert lhs == rhs
            assert fourth_power_residuals(fr, a) == (0, 0)


def test_power_words_match_iterated_powers():
    # the recursion, with no product beyond A*A, reproduces honest powers
    for delta in (1, 8):
        fr = cubic_frame(delta)
        rng = stream_rng(87, "companion", delta)
        a = random_element(fr.spec, rng)
        words = power_words(fr, a, 6)
        assert len(words) == 6
        for m, word in enumerate(words, start=1):
            assert word == jordan_power(a, m)


def test_bracketings_catalan_counts():
    fr = cubic_frame(1)
    rng = stream_rng(88, "cat")
    a = random_element(fr.spec, rng)
    counts = [len(words) for words in bracketings(a, 6)]
    assert counts == [1, 1, 2, 5, 14, 42]
    with pytest.raises(ValueError):
        bracketings(a, 0)


def test_each_bracketed_word_is_built_once(monkeypatch):
    # 1 + 2 + 5 + 14 + 42 words of lengths 2..6, one product each, and the
    # one A*A of the recursion
    fr = cubic_frame(1)
    a = random_element(fr.spec, stream_rng(88, "count"))
    calls = []
    honest = cubic.jordan_mul

    def counted(x, y):
        calls.append(1)
        return honest(x, y)

    monkeypatch.setattr(cubic, "jordan_mul", counted)
    assert bracketing_residual(fr, a, upto=6) == 0
    assert len(calls) == 65


def test_bracketing_words_collapse():
    for delta in DELTAS:
        fr = cubic_frame(delta)
        rng = stream_rng(89, "brk", delta)
        a = random_element(fr.spec, rng)
        assert bracketing_residual(fr, a, upto=5) == 0


def test_rank_characterization():
    for delta in (1, 2):
        fr = cubic_frame(delta)
        spec = fr.spec
        rng = stream_rng(90, "rankchar", delta)
        cases = [
            sample_rank_one(spec, rng).element,      # rank 1
            diagonal_element(spec, [1, -2, 0]),      # rank 2
            random_element(spec, rng),               # generically rank 3
            diagonal_element(spec, [0, 0, 0]),       # rank 0
        ]
        for a in cases:
            r = jordan_rank(a)
            assert (r <= 1) == adjoint(fr, a).is_zero()
            assert (r <= 2) == (fr.norm(a) == 0)
        # direct statements at pinned ranks
        one = sample_rank_one(spec, rng).element
        assert adjoint(fr, one).is_zero()
        two = diagonal_element(spec, [3, 7, 0])
        assert not adjoint(fr, two).is_zero()
        assert fr.norm(two) == 0
