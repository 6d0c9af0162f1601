"""Degree-three norm identities: adjoints, Cayley-Hamilton, power words.

Everything in this module needs the norm form to be cubic (3x3 Hermitian
blocks, any coordinate algebra). The central object is the adjoint element:
the covector B -> Q(A, A, B) raised through the trace pairing. For real
symmetric matrices it coincides with the classical adjugate, and the
relations below are the coordinate-free versions of adj(adj A) = det(A) A
and its derivatives.

Each single identity is a ``*_sides`` function that returns its two sides,
elements (scalars for the scalar reduction) that must be equal; the runner
compares them. The power recursion is stated once, in ``power_words``, and
every power identity is checked against it; the two families of power words
(``fourth_power_residuals``, ``bracketing_residual``) report their largest
deviation instead. ``bracketings`` takes no frame; every other
function takes the NormFrame of the shape. On a frame whose norm is not
cubic the polarizations raise ArityError.
"""

from .jordan import JordanElement, jordan_mul
from .polarization import ArityError, covector_slot, partial_polarize
from .reconstruction import NormFrame, sharp, unit_pairing


def _trilinear(fr: NormFrame, x: JordanElement, y: JordanElement,
               z: JordanElement):
    """Fully polarized norm Q(x, y, z); Q(a, a, a) = Q(a).

    partial_polarize would fill the positions beyond three with x, so a
    norm of another degree is rejected here."""
    if fr.q != 3:
        raise ArityError(f"Q(x, y, z) needs a cubic norm, got degree {fr.q}")
    return partial_polarize(fr.form, x.cleared, [y.cleared, z.cleared])


def _raise(fr: NormFrame, x: JordanElement, y: JordanElement) -> JordanElement:
    """The element S with <S, B> = Q(x, y, B) for every B."""
    return sharp(fr, covector_slot(fr.form, [x.cleared, y.cleared]))


def adjoint(fr: NormFrame, a: JordanElement) -> JordanElement:
    """The element adj(A) with <adj(A), B> = Q(A, A, B) for every B.

    For delta = 1 this is the classical adjugate of the symmetric matrix;
    in particular adjoint(I) = I.
    """
    return _raise(fr, a, a)


def comatrix_product_sides(fr: NormFrame, a: JordanElement):
    """A * adj(A) and Q(A) I."""
    return jordan_mul(a, adjoint(fr, a)), fr.unit.scale(fr.norm(a))


def double_adjoint_sides(fr: NormFrame, a: JordanElement):
    """adj(adj(A)) and Q(A) A: the degree-2 birational square of the norm map."""
    adj = adjoint(fr, a)
    return _raise(fr, adj, adj), a.scale(fr.norm(a))


def mixed_adjoint_sides(fr: NormFrame, a: JordanElement, b: JordanElement):
    """First polarization of the double-adjoint identity.

    4 raise Q(adj A, raise Q(A, B, .), .)  ==  3 Q(A, A, B) A + Q(A) B.
    """
    adj = adjoint(fr, a)
    w = _raise(fr, a, b)
    lhs = _raise(fr, adj, w).scale(4)
    rhs = a.scale(3 * _trilinear(fr, a, a, b)) + b.scale(fr.norm(a))
    return lhs, rhs


def unit_reduction_sides(fr: NormFrame, a: JordanElement):
    """Second polarization, with one argument specialized to the unit.

    2 raise Q(adj A, A, .)  ==  6 phi(A) raise Q(adj A, I, .)
                                - Q(A) I - 3 Q(A, A, I) A.
    """
    adj = adjoint(fr, a)
    lhs = _raise(fr, adj, a).scale(2)
    rhs = (_raise(fr, adj, fr.unit).scale(6 * unit_pairing(fr, a))
           - fr.unit.scale(fr.norm(a))
           - a.scale(3 * _trilinear(fr, a, a, fr.unit)))
    return lhs, rhs


def scalar_reduction_sides(fr: NormFrame, a: JordanElement):
    """Scalar shadow of the previous relation, evaluated on the unit.

    2 Q(adj A, A, I)  ==  3 phi(A) Q(A, A, I) - Q(A).
    """
    adj = adjoint(fr, a)
    lhs = 2 * _trilinear(fr, adj, a, fr.unit)
    rhs = 3 * unit_pairing(fr, a) * _trilinear(fr, a, a, fr.unit) - fr.norm(a)
    return lhs, rhs


def square_decomposition_sides(fr: NormFrame, a: JordanElement):
    """A * A and adj(A) + 3 phi(A) A - 3 Q(I, A, A) I."""
    rhs = (adjoint(fr, a) + a.scale(3 * unit_pairing(fr, a))
           - fr.unit.scale(3 * _trilinear(fr, fr.unit, a, a)))
    return jordan_mul(a, a), rhs


def power_words(fr: NormFrame, a: JordanElement, upto: int):
    """[A^1, ..., A^upto] as combinations of I, A and A*A.

    With s1 = 3 Q(A,I,I), s2 = 3 Q(A,A,I) and s3 = Q(A), Cayley-Hamilton
    A^3 = s1 A*A - s2 A + s3 I turns A^m = c0 I + c1 A + c2 A*A into
    A^(m+1) = s3 c2 I + (c0 - s2 c2) A + (c1 + s1 c2) A*A.
    """
    s1 = 3 * _trilinear(fr, a, fr.unit, fr.unit)
    s2 = 3 * _trilinear(fr, a, a, fr.unit)
    s3 = fr.norm(a)
    sq = jordan_mul(a, a)
    c0, c1, c2 = 0, 1, 0
    words = []
    for _ in range(upto):
        words.append(sq.scale(c2) + a.scale(c1) + fr.unit.scale(c0))
        c0, c1, c2 = s3 * c2, c0 - s2 * c2, c1 + s1 * c2
    return words


def cayley_hamilton_sides(fr: NormFrame, a: JordanElement):
    """(A*A)*A and 3 Q(A,I,I) A*A - 3 Q(A,A,I) A + Q(A) I."""
    _, sq, cube = power_words(fr, a, 3)
    return jordan_mul(sq, a), cube


def fourth_power_residuals(fr: NormFrame, a: JordanElement):
    """The residuals of A^2 * A^2 and A * ((A*A)*A) against A^4."""
    _, sq, _, fourth = power_words(fr, a, 4)
    r1 = (jordan_mul(sq, sq) - fourth).max_abs()
    r2 = (jordan_mul(a, jordan_mul(sq, a)) - fourth).max_abs()
    return r1, r2


def bracketings(a: JordanElement, upto: int):
    """Every full bracketing of the m-fold product of A, for m = 1..upto.

    Entry m - 1 lists the words of length m (Catalan(m - 1) of them); each
    word is one product of two shorter words, so each is built once.
    """
    if upto < 1:
        raise ValueError("need at least one factor")
    table = [[a]]
    for length in range(2, upto + 1):
        table.append([jordan_mul(x, y) for left in range(1, length)
                      for x in table[left - 1] for y in table[length - left - 1]])
    return table


def bracketing_residual(fr: NormFrame, a: JordanElement, upto: int):
    """Largest deviation of any bracketed power word from the recursion value.

    Checks every one of the 1 + 1 + 2 + 5 + 14 + 42 bracketings of lengths
    1..6 (Catalan counts) when upto = 6.
    """
    return max((w - target).max_abs() for target, words
               in zip(power_words(fr, a, upto), bracketings(a, upto)) for w in words)
