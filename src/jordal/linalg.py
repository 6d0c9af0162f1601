"""Dense linear algebra, exact or in floats, and the number format.

This module decides the one number format of the package: int numerators
over one positive int denominator in lowest terms, or, once a float is
involved, floats over 1. ``over`` brings numerators over a denominator to
that format, ``clear_row_denominators`` takes values to it and ``combine``
forms linear combinations in it; no other module tests number types to
choose between exact and float arithmetic.

Matrices are sequences of rows of ints / Fractions. Each row is cleared to
int numerators, and one fraction-free (Bareiss) echelon of the int rows
gives rank, nullspace, determinant, solve and inverse, the last three
finished by one back-substitution. A nullspace comes back as primitive int
vectors. A LinearOperator holds int numerators over one denominator and
applies to a vector given the same way, (numerators, denominator); Fractions
appear only in the scalars that leave (determinants, traces). Float rank,
solve and sign and log|det| come from one Gaussian elimination with complete
pivoting, and float sums run left to right (``total``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm, log, prod, ulp
from operator import mul


# the number types of exact mode; anything else (floats) is left as given
EXACT_TYPES = frozenset((int, Fraction))
# a float pivot at most this many eps * max(m, n) * max|a| reads as zero
ZERO_PIVOT_ULPS = 16


class SingularMatrix(ValueError):
    pass


class TagMismatch(ValueError):
    pass


def total(values):
    """sum(values) left to right; builtin sum compensates floats from 3.12 on."""
    s = 0
    for v in values:
        s += v
    return s


def common_denominator(values) -> int:
    """lcm of the denominators of ints and Fractions (an int's is 1)."""
    return lcm(*(v.denominator for v in values))


def clear_row_denominators(row):
    """(numerators, d): int numerators over one common denominator d.

    Integral Fractions become ints too, so the caller's arithmetic runs on
    plain ints. A row holding anything but ints and Fractions (the floats
    of float mode) comes back unchanged with d = 1.
    """
    row = tuple(row)
    types = set(map(type, row))
    if types <= {int} or not EXACT_TYPES.issuperset(types):
        return row, 1
    d = common_denominator(row)
    return tuple(v * d if type(v) is int else v.numerator * (d // v.denominator)
                 for v in row), d


def over(nums, den):
    """(numerators, denominator): the flat tuple nums over den in the one
    number format.

    Int numerators over a positive int denominator come back in lowest
    terms. Any other numerators, or a float denominator, are divided through
    and come back as floats over 1. No Fraction is built.
    """
    if den == 1 and type(den) is int:
        return nums, 1
    try:
        g = gcd(den, *nums)
    except TypeError:  # math.gcd takes only ints
        return tuple([v / den for v in nums]), 1
    return (nums, den) if g == 1 else (tuple([v // g for v in nums]), den // g)


def combine(coeffs, vectors):
    """sum_i coeffs[i] vectors[i] as (nums, den), for vectors given that way.

    The coefficients are cleared like any values, so a float among them makes
    every coordinate a float."""
    cs, d = clear_row_denominators(coeffs)
    common = lcm(*(d * den for _, den in vectors))
    terms = [[c * (common // (d * den)) * v for v in nums]
             for c, (nums, den) in zip(cs, vectors)]
    return over(tuple(map(total, zip(*terms))), common)


def _echelon(rows, ncols):
    """Bareiss echelon form of rational rows: (int rows, pivots, sign).

    Each row is cleared to ints first. Pivots are sought in the first ncols
    columns, skipping columns without one; later columns (right-hand sides)
    are eliminated along, and sign is that of the row swaps. Every entry
    below a pivot is a minor of the input, so dividing by the previous pivot
    is exact. A row with a zero in the pivot column would only be rescaled,
    so it is left alone: it keeps the pivot it was last divided by (its
    level) and catches up when next used.
    """
    rows = [list(clear_row_denominators(r)[0]) for r in rows]
    level = [1] * len(rows)
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            level[r], level[p] = level[p], level[r]
            sign = -sign
        row_r = rows[r]
        if level[r] != prev:
            row_r = rows[r] = [v * prev // level[r] for v in row_r]
        piv = row_r[c]
        for i in range(r + 1, len(rows)):
            row_i, vi = rows[i], rows[i][c]
            if vi:
                row_i[c:] = [(piv * x - vi * y) // level[i]
                             for x, y in zip(row_i[c:], row_r[c:])]
                level[i] = piv
        pivots.append(c)
        prev = piv
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots, sign


def _back_substitute(ech, pivots, xs):
    """Set the pivot entries of each x in xs so the echelon rows kill x; the
    others come scaled by the last pivot, so every division is exact."""
    rows = [(pc, row[pc], [(j, a) for j, a in enumerate(row) if a and j != pc])
            for row, pc in zip(ech, pivots)][::-1]
    for x in xs:
        for pc, piv, rest in rows:
            x[pc] = -sum(a * x[j] for j, a in rest) // piv
    return xs


def exact_rank(rows) -> int:
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def exact_nullspace(rows):
    """Basis of {x : R x = 0} as primitive int tuples (entries with gcd 1),
    one per free column, positive there and 0 at the other free columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots, _ = _echelon(rows, ncols)
    den = abs(ech[-1][pivots[-1]]) if pivots else 1
    xs = [[den if c == free else 0 for c in range(ncols)]
          for free in range(ncols) if free not in pivots]
    basis = []
    for x in _back_substitute(ech, pivots, xs):
        g = gcd(*x)
        basis.append(tuple(v // g for v in x))
    return basis


def exact_det(rows):
    """Determinant of a square rational matrix (exact Fraction)."""
    n = len(rows)
    ech, pivots, sign = _echelon(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * ech[-1][n - 1] if n else 1,
                    prod(clear_row_denominators(r)[1] for r in rows))


def _solve(rows, rhs):
    """(X, den): int columns X over den with R X / den = rhs, rhs given as
    rows; raises SingularMatrix if R is singular."""
    n = len(rows)
    ech, pivots, _ = _echelon([list(r) + list(b) for r, b in zip(rows, rhs)], n)
    if len(pivots) != n:
        raise SingularMatrix("matrix is singular")
    den, width = abs(ech[-1][n - 1]), len(ech[0])
    xs = [[0] * n + [-den if j == k else 0 for j in range(n, width)]
          for k in range(n, width)]
    return [x[:n] for x in _back_substitute(ech, pivots, xs)], den


def exact_solve(rows, rhs):
    """x with R x = rhs as (numerators, denominator); raises SingularMatrix."""
    (x,), den = _solve(rows, [[b] for b in rhs])
    return over(tuple(x), den)


def exact_inverse(rows):
    """(int rows, den): the inverse of a square rational matrix over one
    positive denominator; raises SingularMatrix if it is singular."""
    n = len(rows)
    cols, den = _solve(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    return tuple(zip(*cols)), den


def _float_echelon(rows, ncols):
    """Complete-pivoting elimination of float rows: (rows, pivots, sign).

    Each step pivots on the largest entry, the first in row-major order, of
    the unused rows and unused columns among the first ncols (later columns
    are eliminated along). It stops once that entry is at most the cutoff
    ZERO_PIVOT_ULPS * eps * max(m, n) * max|a|, so the pivot count is the
    numerical rank. Row i is zero in pivots[:i]; sign is that of the row and
    column swaps that bring the pivots to the diagonal.
    """
    rows = [[float(v) for v in row] for row in rows]
    top = max((abs(v) for row in rows for v in row[:ncols]), default=0.0)
    cutoff = ZERO_PIVOT_ULPS * ulp(1.0) * max(len(rows), ncols) * top
    free, pivots, sign = list(range(ncols)), [], 1
    for r in range(min(len(rows), ncols)):
        best, p, t = max((abs(rows[i][c]), -i, -u) for i in range(r, len(rows))
                         for u, c in enumerate(free))
        if best <= cutoff:
            break
        p, t = -p, -t
        rows[r], rows[p] = rows[p], rows[r]
        c = free.pop(t)  # moving column c to the front passes t columns
        sign *= (-1) ** (t + (p != r))
        row_r, piv = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / piv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], row_r)]
                rows[i][c] = 0.0
        pivots.append(c)
    return rows[:len(pivots)], pivots, sign


def float_rank(rows) -> int:
    return len(_float_echelon(rows, len(rows[0]) if rows else 0)[1])


def float_solve(rows, rhs):
    """x with R x = rhs as floats over 1; raises SingularMatrix below full rank."""
    n = len(rows)
    ech, pivots, _ = _float_echelon([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if len(pivots) != n:
        raise SingularMatrix("matrix is numerically singular")
    x = [0.0] * n  # the entries not yet set, x[c] among them, add nothing
    for row, c in zip(ech[::-1], pivots[::-1]):
        x[c] = (row[n] - total(map(mul, row[:n], x))) / row[c]
    return tuple(x), 1


def float_slogdet(rows):
    """(sign, log|det|) of a square float matrix; (0, -inf) below full rank."""
    ech, pivots, sign = _float_echelon(rows, len(rows))
    if len(pivots) < len(rows):
        return 0, -inf
    diag = [row[c] for row, c in zip(ech, pivots)]
    return (sign * prod(1 if v > 0 else -1 for v in diag),
            total(log(abs(v)) for v in diag))


def mat_vec(rows, vec):
    """rows @ vec, skipping the zero entries of rows."""
    return tuple(total(a * vec[j] for j, a in enumerate(row) if a) for row in rows)


def mat_mul(a, b):
    """a @ b, skipping the zero entries of a."""
    cols = tuple(zip(*b))
    return tuple(tuple(total(x * col[k] for k, x in nonzero) for col in cols)
                 for nonzero in ([(k, x) for k, x in enumerate(row) if x] for row in a))


class LinearOperator:
    """Dense operator with domain/codomain tags ("V" or "V*").

    Its entries are ``numerators`` over one ``denominator``, brought to the
    number format by ``over``: ints over a positive int in lowest terms, or
    floats over 1. Callers that hold values clear them first
    (``clear_row_denominators``).
    """

    __slots__ = ("numerators", "denominator", "domain", "codomain")

    def __init__(self, numerators, denominator, domain: str, codomain: str):
        flat = tuple([v for row in numerators for v in row])
        reduced, self.denominator = over(flat, denominator)
        n = len(numerators[0]) if numerators else 1
        self.numerators = numerators if reduced is flat else tuple(
            reduced[i:i + n] for i in range(0, len(reduced), n))
        self.domain, self.codomain = domain, codomain

    @property
    def dim(self) -> int:
        return len(self.numerators)

    def apply(self, nums, den):
        """(numerators, denominator) of the image of the vector nums / den."""
        return over(mat_vec(self.numerators, nums), self.denominator * den)

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other (matrix product self @ other)."""
        if other.codomain != self.domain:
            raise TagMismatch(f"cannot compose {self.domain}->{self.codomain} "
                              f"after {other.domain}->{other.codomain}")
        return LinearOperator(mat_mul(self.numerators, other.numerators),
                              self.denominator * other.denominator,
                              other.domain, self.codomain)

    def trace(self):
        t = total(self.numerators[i][i] for i in range(self.dim))
        return t if self.denominator == 1 else Fraction(t, self.denominator)

    def __repr__(self):
        return f"LinearOperator({self.domain}->{self.codomain}, dim={self.dim})"
