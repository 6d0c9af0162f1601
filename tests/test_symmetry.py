"""Norm similarities: permutation conjugations, structural maps, derivations."""

from fractions import Fraction

import pytest

from jordal.jordan import (
    JordanElement,
    JordanSpec,
    identity,
    jordan_mul,
    random_element,
)
from jordal.reconstruction import frame, tau
from jordal.rng import stream_rng
from jordal.symmetry import (
    GroupElementSample,
    SimilarityViolation,
    automorphism_trichotomy,
    lie_triple_sides,
    permutation_conjugation_sample,
    structural_sample,
)
from oracles import identity_matrix, is_symmetric, operator, values

JORDAN_SPECS = [(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4),
                (4, 1), (4, 2), (5, 1)]


def identity_sample(fr, rng):
    return GroupElementSample(fr, operator(identity_matrix(fr.spec.dim)),
                              "identity", rng)


def test_identity_sample():
    fr = frame(JordanSpec(2, 2))
    rng = stream_rng(70, "ident")
    g = identity_sample(fr, rng)
    assert g.norm_factor == 1
    a = random_element(fr.spec, rng)
    assert g.apply(a) == a


def test_permutation_conjugation_preserves_norm():
    for (k, delta) in [(2, 1), (2, 8), (3, 2), (4, 1)]:
        fr = frame(JordanSpec(k, delta))
        rng = stream_rng(71, "perm", k, delta)
        g = permutation_conjugation_sample(fr, rng)
        assert g.norm_factor == 1
        # it is a genuine automorphism: fixes the unit and the product
        e = identity(fr.spec)
        assert g.apply(e) == e
        a = random_element(fr.spec, rng)
        b = random_element(fr.spec, rng)
        assert g.apply(jordan_mul(a, b)) == jordan_mul(g.apply(a), g.apply(b))


def test_structural_sample_norm_factor():
    from math import isqrt
    for (k, delta) in [(2, 1), (2, 4), (3, 2)]:
        fr = frame(JordanSpec(k, delta))
        rng = stream_rng(72, "struct", k, delta)
        g = structural_sample(fr, rng)
        assert g.provenance == "structural"
        assert g.norm_factor not in (0, 1, -1)
        # Q(H_A M) = Q(A)^-2 Q(M): the inverse factor is a rational square
        q2 = 1 / Fraction(g.norm_factor)
        assert q2 > 0
        assert Fraction(isqrt(q2.numerator), isqrt(q2.denominator)) ** 2 == q2


def test_composite_sample_multiplies_factors():
    fr = frame(JordanSpec(2, 2))
    rng = stream_rng(73, "comp")
    p = permutation_conjugation_sample(fr, rng)
    h = structural_sample(fr, rng)
    g = GroupElementSample(fr, p.operator.compose(h.operator), "composite", rng)
    assert g.provenance == "composite"
    assert g.norm_factor == p.norm_factor * h.norm_factor != 0


def test_automorphism_trichotomy():
    fr = frame(JordanSpec(2, 2))
    rng = stream_rng(74, "tri")
    g = permutation_conjugation_sample(fr, rng)
    assert automorphism_trichotomy(g, rng) == (True, True, True)
    h = structural_sample(fr, rng)  # Q(A)^2 != 1, so no condition holds
    assert automorphism_trichotomy(h, rng) == (False, False, False)
    e = identity_sample(fr, rng)
    assert automorphism_trichotomy(e, rng) == (True, True, True)


def test_degenerate_sample_rejected():
    # an arbitrary non-similarity operator has no constant norm ratio
    fr = frame(JordanSpec(2, 1))
    rng = stream_rng(75, "degen")
    n = fr.spec.dim
    mat = tuple(tuple(1 if (i + 2 * j) % n == 0 else i + j for j in range(n))
                for i in range(n))
    with pytest.raises(SimilarityViolation):
        GroupElementSample(fr, operator(mat), "adhoc", rng)


def test_vanishing_norm_factor_is_a_violation():
    # a similarity is invertible, so a factor of 0 refutes the claim rather
    # than asking for another draw
    fr = frame(JordanSpec(2, 1))
    n = fr.spec.dim
    zero = operator(((0,) * n,) * n)
    with pytest.raises(SimilarityViolation, match="norm factor vanishes"):
        GroupElementSample(fr, zero, "zero", stream_rng(75, "zero"))


def test_operator_symmetry_check():
    fr = frame(JordanSpec(2, 4))
    rng = stream_rng(76, "symm")
    a = fr.random_invertible(rng)
    # tau_A, viewed as a bilinear form, equals its transpose exactly
    assert is_symmetric(values(tau(fr, a)))


def test_lie_triple_residual_zero_on_jordan_specs():
    for (k, delta) in JORDAN_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(77, "lie", k, delta)
        a, b, x, y = (random_element(spec, rng) for _ in range(4))
        lhs, rhs = lie_triple_sides(a, b, x, y)
        assert lhs == rhs


def test_lie_triple_residual_nonzero_on_octonion_four_by_four():
    spec = JordanSpec(3, 8)
    rng = stream_rng(78, "lie38")
    sides = []
    for _ in range(5):
        a, b, x, y = (JordanElement(
            spec, tuple(rng.randint(-4, 4) for _ in range(spec.dim)))
            for _ in range(4))
        sides.append(lie_triple_sides(a, b, x, y))
    assert any(lhs != rhs for lhs, rhs in sides)
