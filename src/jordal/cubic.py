"""Degree-three norm identities: adjoints, Cayley-Hamilton, power words.

Everything in this module needs the norm form to be cubic (3x3 Hermitian
blocks, any coordinate algebra). The central object is the adjoint element:
the covector B -> Q(A, A, B) raised through the trace pairing. For real
symmetric matrices it coincides with the classical adjugate, and the
relations below are the coordinate-free versions of adj(adj A) = det(A) A
and its derivatives.

Every function takes the NormFrame of the shape. On a frame whose norm is
not cubic the polarizations raise ArityError.
"""

from .jordan import JordanElement, jordan_mul
from .polarization import covector_slot, partial_polarize
from .reconstruction import NormFrame, sharp, unit_pairing


def _trilinear(fr: NormFrame, x: JordanElement, y: JordanElement,
               z: JordanElement):
    """Fully polarized norm Q(x, y, z); Q(a, a, a) = Q(a)."""
    return partial_polarize(fr.form, x.coords(), 1, [y.coords(), z.coords()])


def _raise(fr: NormFrame, x: JordanElement, y: JordanElement) -> JordanElement:
    """The element S with <S, B> = Q(x, y, B) for every B."""
    return sharp(fr, covector_slot(fr.form, [x.coords(), y.coords()]))


def adjoint(fr: NormFrame, a: JordanElement) -> JordanElement:
    """The element adj(A) with <adj(A), B> = Q(A, A, B) for every B.

    For delta = 1 this is the classical adjugate of the symmetric matrix;
    in particular adjoint(I) = I.
    """
    return _raise(fr, a, a)


def comatrix_product_residual(fr: NormFrame, a: JordanElement):
    """A * adj(A) - Q(A) I, which should vanish identically."""
    lhs = jordan_mul(a, adjoint(fr, a))
    return (lhs - fr.unit.scale(fr.norm(a))).max_abs()


def double_adjoint_residual(fr: NormFrame, a: JordanElement):
    """adj(adj(A)) - Q(A) A: the degree-2 birational square of the norm map."""
    adj = adjoint(fr, a)
    lhs = _raise(fr, adj, adj)
    return (lhs - a.scale(fr.norm(a))).max_abs()


def mixed_adjoint_residual(fr: NormFrame, a: JordanElement,
                           b: JordanElement):
    """First polarization of the double-adjoint identity.

    4 raise Q(adj A, raise Q(A, B, .), .)  ==  3 Q(A, A, B) A + Q(A) B.
    """
    adj = adjoint(fr, a)
    w = _raise(fr, a, b)
    lhs = _raise(fr, adj, w).scale(4)
    rhs = a.scale(3 * _trilinear(fr, a, a, b)) + b.scale(fr.norm(a))
    return (lhs - rhs).max_abs()


def unit_reduction_residual(fr: NormFrame, a: JordanElement):
    """Second polarization, with one argument specialized to the unit.

    2 raise Q(adj A, A, .)  ==  6 phi(A) raise Q(adj A, I, .)
                                - Q(A) I - 3 Q(A, A, I) A.
    """
    adj = adjoint(fr, a)
    lhs = _raise(fr, adj, a).scale(2)
    rhs = (_raise(fr, adj, fr.unit).scale(6 * unit_pairing(fr, a))
           - fr.unit.scale(fr.norm(a))
           - a.scale(3 * _trilinear(fr, a, a, fr.unit)))
    return (lhs - rhs).max_abs()


def scalar_reduction_residual(fr: NormFrame, a: JordanElement):
    """Scalar shadow of the previous relation, evaluated on the unit.

    2 Q(adj A, A, I)  ==  3 phi(A) Q(A, A, I) - Q(A).
    """
    adj = adjoint(fr, a)
    lhs = 2 * _trilinear(fr, adj, a, fr.unit)
    rhs = 3 * unit_pairing(fr, a) * _trilinear(fr, a, a, fr.unit) - fr.norm(a)
    return abs(lhs - rhs)


def square_decomposition_residual(fr: NormFrame, a: JordanElement):
    """A * A - adj(A) - 3 phi(A) A + 3 Q(I, A, A) I, identically zero."""
    lhs = jordan_mul(a, a)
    rhs = (adjoint(fr, a) + a.scale(3 * unit_pairing(fr, a))
           - fr.unit.scale(3 * _trilinear(fr, fr.unit, a, a)))
    return (lhs - rhs).max_abs()


def cayley_hamilton_residual(fr: NormFrame, a: JordanElement):
    """(A*A)*A - 3 Q(A,I,I) A*A + 3 Q(A,A,I) A - Q(A) I."""
    sq = jordan_mul(a, a)
    cube = jordan_mul(sq, a)
    rhs = (sq.scale(3 * _trilinear(fr, a, fr.unit, fr.unit))
           - a.scale(3 * _trilinear(fr, a, a, fr.unit))
           + fr.unit.scale(fr.norm(a)))
    return (cube - rhs).max_abs()


def fourth_power_residuals(fr: NormFrame, a: JordanElement):
    """Both fourth-power routes against the closed-form combination.

    A^2 * A^2 and A * ((A*A)*A) must each equal
    [9 phi(A)^2 laid out against Q(A,A,I)] A^2 + ... (see the display below).
    Returns the pair of residuals.
    """
    s1 = 3 * _trilinear(fr, a, fr.unit, fr.unit)
    s2 = 3 * _trilinear(fr, a, a, fr.unit)
    s3 = fr.norm(a)
    sq = jordan_mul(a, a)
    cube = jordan_mul(sq, a)
    display = (sq.scale(s1 * s1 - s2) + a.scale(s3 - s1 * s2)
               + fr.unit.scale(s1 * s3))
    r1 = (jordan_mul(sq, sq) - display).max_abs()
    r2 = (jordan_mul(a, cube) - display).max_abs()
    return r1, r2


def companion_matrix(fr: NormFrame, a: JordanElement):
    """Multiplication by A on span(I, A, A*A) in that basis.

    Columns are the coordinates of A*I, A*A and A*(A*A); the third column
    is the characteristic-polynomial recursion.
    """
    s1 = 3 * _trilinear(fr, a, fr.unit, fr.unit)
    s2 = 3 * _trilinear(fr, a, a, fr.unit)
    s3 = fr.norm(a)
    return ((0, 0, s3), (1, 0, -s2), (0, 1, s1))


def power_coefficients(fr: NormFrame, a: JordanElement, m: int):
    """Coefficients (c0, c1, c2) with A^m = c0 I + c1 A + c2 A*A."""
    if m < 0:
        raise ValueError("powers start at 0")
    mat = companion_matrix(fr, a)
    vec = (1, 0, 0)
    for _ in range(m):
        vec = tuple(sum(mat[i][j] * vec[j] for j in range(3)) for i in range(3))
    return vec


def word_power(fr: NormFrame, a: JordanElement, m: int) -> JordanElement:
    """A^m computed through the rank-three recursion, no products beyond A*A."""
    c0, c1, c2 = power_coefficients(fr, a, m)
    return fr.unit.scale(c0) + a.scale(c1) + jordan_mul(a, a).scale(c2)


def bracketings(a: JordanElement, length: int):
    """Every full bracketing of the length-fold product of A with itself."""
    if length < 1:
        raise ValueError("need at least one factor")
    if length == 1:
        return [a]
    out = []
    for left in range(1, length):
        for x in bracketings(a, left):
            for y in bracketings(a, length - left):
                out.append(jordan_mul(x, y))
    return out


def bracketing_residual(fr: NormFrame, a: JordanElement, upto: int = 6):
    """Largest deviation of any bracketed power word from the recursion value.

    Checks every one of the 1 + 1 + 2 + 5 + 14 + 42 bracketings of lengths
    1..6 (Catalan counts) when upto = 6.
    """
    worst = 0
    for length in range(1, upto + 1):
        target = word_power(fr, a, length)
        for w in bracketings(a, length):
            dev = (w - target).max_abs()
            if dev > worst:
                worst = dev
    return worst

