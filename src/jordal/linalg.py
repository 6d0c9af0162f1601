"""Exact dense linear algebra over the rationals.

Matrices are tuples (or lists) of row tuples holding ints / Fractions.
Rank, nullspace, determinant and solves run fraction-free where possible:
rational input is scaled to an integer matrix once, then eliminated with
integer Bareiss pivoting, which is much faster than Fraction arithmetic in
the inner loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# the number types of exact mode; anything else (floats) is left as given
EXACT_TYPES = frozenset((int, Fraction))


class SingularMatrix(ValueError):
    pass


class TagMismatch(ValueError):
    pass


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def common_denominator(values) -> int:
    d = 1
    for v in values:
        if isinstance(v, Fraction):
            d = lcm(d, v.denominator)
    return d


def clear_row_denominators(row):
    """(numerators, d): int numerators over one common denominator d.

    Integral Fractions become ints too, so the caller's arithmetic runs on
    plain ints. A row holding anything but ints and Fractions (the floats
    of float mode) comes back unchanged with d = 1.
    """
    row = tuple(row)
    if not EXACT_TYPES.issuperset(map(type, row)):
        return row, 1
    d = common_denominator(row)
    if d == 1:
        return tuple(int(v) for v in row), 1
    return tuple(int(v * d) for v in row), d


def to_integer_matrix(rows):
    """Scale each row to integers independently (rank/nullspace-safe)."""
    return [clear_row_denominators(r)[0] for r in rows]


def _int_echelon(rows, ncols):
    """Integer row echelon via cross-multiplication. Returns (rows, pivots).

    Eliminates with piv*row_i - v_i*row_piv (no divisions to go wrong) and
    renormalizes each updated row by its gcd to keep entries small. Row
    scalings are arbitrary, which rank, nullspace, and back substitution
    all tolerate. ``rows`` must contain ints.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        # pick the smallest nonzero pivot to slow entry growth
        best = None
        for i in range(r, len(rows)):
            v = rows[i][c]
            if v != 0 and (best is None or abs(v) < abs(rows[best][c])):
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        row_r = rows[r]
        piv = row_r[c]
        for i in range(r + 1, len(rows)):
            vi = rows[i][c]
            if vi == 0:
                continue
            row_i = rows[i]
            for j in range(c, ncols):
                row_i[j] = piv * row_i[j] - vi * row_r[j]
            g = 0
            for x in row_i:
                g = gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                rows[i] = [x // g for x in row_i]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def exact_rank(rows) -> int:
    rows = [r for r in rows if any(v != 0 for v in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    int_rows = to_integer_matrix(rows)
    _, pivots = _int_echelon(int_rows, ncols)
    return len(pivots)


def exact_nullspace(rows):
    """Basis of {x : R x = 0} as a list of Fraction tuples."""
    rows = [r for r in rows if any(v != 0 for v in r)]
    if not rows:
        return []
    ncols = len(rows[0])
    int_rows = to_integer_matrix(rows)
    ech, pivots = _int_echelon(int_rows, ncols)
    # back substitution on the echelon form (entries are ints)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for i in reversed(range(len(pivots))):
            pc = pivots[i]
            s = sum(ech[i][j] * x[j] for j in range(pc + 1, ncols))
            x[pc] = -Fraction(s, ech[i][pc])
        basis.append(tuple(x))
    return basis


def exact_det(rows):
    """Determinant of a square rational matrix (exact Fraction)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    int_rows = []
    for r in rows:
        ir, d = clear_row_denominators(r)
        scale *= d
        int_rows.append(ir)
    det = _int_det(int_rows)
    return Fraction(det, 1) / scale


def _int_det(rows) -> int:
    """Bareiss determinant of an integer matrix (consumes rows)."""
    n = len(rows)
    rows = [list(r) for r in rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv_i = None
        for i in range(c, n):
            if rows[i][c] != 0 and (piv_i is None or abs(rows[i][c]) < abs(rows[piv_i][c])):
                piv_i = i
        if piv_i is None:
            return 0
        if piv_i != c:
            rows[c], rows[piv_i] = rows[piv_i], rows[c]
            sign = -sign
        piv = rows[c][c]
        for i in range(c + 1, n):
            vi = rows[i][c]
            row_i = rows[i]
            row_c = rows[c]
            for j in range(c + 1, n):
                row_i[j] = (piv * row_i[j] - vi * row_c[j]) // prev
            row_i[c] = 0
        prev = piv
    return sign * rows[n - 1][n - 1]


def exact_solve(rows, rhs):
    """Solve R x = rhs exactly; raises SingularMatrix if R is singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    scale_cols = n + 1
    int_rows = [clear_row_denominators(r)[0] for r in aug]
    ech, pivots = _int_echelon(int_rows, scale_cols)
    if len(pivots) != n or pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        s = sum(ech[i][j] * x[j] for j in range(i + 1, n))
        x[i] = Fraction(ech[i][n] - s, ech[i][i])
    return tuple(x)


def exact_inverse(rows):
    """Inverse of a square rational matrix as Fraction rows."""
    n = len(rows)
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            raise SingularMatrix("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [v / pv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return tuple(tuple(r[n:]) for r in aug)


def mat_vec(rows, vec):
    return tuple(sum(r[j] * vec[j] for j in range(len(vec))) for r in rows)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def proportional(u, v) -> bool:
    """True when nonzero u and v span the same line.

    When either vector is zero, True exactly when both are.
    """
    nu = any(x != 0 for x in u)
    nv = any(x != 0 for x in v)
    if not nu or not nv:
        return nu == nv
    # cross-multiply against the first nonzero coordinate of u
    p = next(i for i, x in enumerate(u) if x != 0)
    if v[p] == 0:
        return False
    return all(u[p] * v[j] == v[p] * u[j] for j in range(len(u)))


class LinearOperator:
    """Dense operator with domain/codomain tags ("V" or "V*")."""

    __slots__ = ("matrix", "domain", "codomain")

    def __init__(self, matrix, domain: str = "V", codomain: str = "V"):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.domain = domain
        self.codomain = codomain

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, vec):
        return mat_vec(self.matrix, vec)

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other (matrix product self @ other)."""
        if other.codomain != self.domain:
            raise TagMismatch(f"cannot compose {self.domain}->{self.codomain} "
                              f"after {other.domain}->{other.codomain}")
        return LinearOperator(mat_mul(self.matrix, other.matrix),
                              other.domain, self.codomain)

    def det(self):
        if self.dim and len(self.matrix[0]) != self.dim:
            raise ValueError("determinant of a non-square operator")
        return exact_det(self.matrix)

    def trace(self):
        return sum(self.matrix[i][i] for i in range(self.dim))

    def __eq__(self, other):
        return (isinstance(other, LinearOperator) and self.matrix == other.matrix
                and self.domain == other.domain and self.codomain == other.codomain)

    def __repr__(self):
        return f"LinearOperator({self.domain}->{self.codomain}, dim={self.dim})"
