"""Hermitian Jordan algebras H_{k+1}(K) over composition algebras.

Elements are (k+1)x(k+1) matrices with scalar diagonal and entries in the
dimension-delta composition algebra above the diagonal, the conjugates
below. The product is the symmetrized one, A*B = (AB + BA)/2, computed as
one matrix product on composition.grid_matmul: AB + BA = AB + (AB)^H, and
both operands are first cleared to int numerators over one denominator.

Canonical coordinates: the k+1 diagonal units first, then for each pair
i < j (lexicographic) and each algebra basis unit e_s the matrix E_ij(e_s)
carrying e_s at (i, j) and conj(e_s) at (j, i). So

    dimV = (k+1)(2 + k delta)/2.

The generic characteristic coefficients sigma_1..sigma_{k+1} come from
Newton's identities over the power traces p_m = T(A^m); the generic norm is
Q = sigma_{k+1}, normalized so Q(identity) = 1. Power traces are computed
on doubled powers D_m = 2^(m-1) A^m, which satisfy the division-free
recursion D_{m+1} = A D_m + (A D_m)^H, so integer input stays integer until
the final trace normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .composition import ALLOWED_DIMS, DimensionMismatch, cd_conj, grid_matmul
from .linalg import LinearOperator, clear_row_denominators
from .polarization import PolarizedForm


class SpecMismatch(ValueError):
    pass


@dataclass(frozen=True)
class JordanSpec:
    """Shape parameters: matrices of size k+1, entry algebra of dimension delta."""

    k: int
    delta: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.delta not in ALLOWED_DIMS:
            raise DimensionMismatch(f"delta must be one of {ALLOWED_DIMS}, got {self.delta}")

    @property
    def size(self) -> int:
        return self.k + 1

    @property
    def degree(self) -> int:
        """Degree of the generic norm form."""
        return self.k + 1

    @property
    def dim(self) -> int:
        return (self.k + 1) * (2 + self.k * self.delta) // 2

    @property
    def ambient(self) -> int:
        """n = k*delta, the dimension of the projective rank-one variety."""
        return self.k * self.delta

    @property
    def is_jordan(self) -> bool:
        """The Jordan identity holds iff the entries associate enough."""
        return self.k == 2 or self.delta <= 4

    @property
    def pairs(self) -> tuple:
        return _pairs(self.k)

    def pair_offset(self, i: int, j: int) -> int:
        """Start of the coordinate block of the (i, j) off-diagonal entry."""
        return self.size + _pair_index(self.k, i, j) * self.delta


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple:
    return tuple((i, j) for i in range(k + 1) for j in range(i + 1, k + 1))


def _pair_index(k: int, i: int, j: int) -> int:
    return _pairs(k).index((i, j))


class JordanElement:
    """Immutable element in canonical coordinates (diagonal + upper blocks)."""

    __slots__ = ("spec", "diag", "upper")

    def __init__(self, spec: JordanSpec, diag, upper):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "diag", tuple(diag))
        object.__setattr__(self, "upper", tuple(tuple(u) for u in upper))

    def __setattr__(self, *_):
        raise AttributeError("JordanElement is immutable")

    @classmethod
    def from_coords(cls, spec: JordanSpec, vec) -> "JordanElement":
        vec = tuple(vec)
        if len(vec) != spec.dim:
            raise SpecMismatch(f"expected {spec.dim} coordinates, got {len(vec)}")
        s = spec.size
        d = spec.delta
        diag = vec[:s]
        upper = tuple(vec[s + t * d: s + (t + 1) * d] for t in range(len(spec.pairs)))
        return cls(spec, diag, upper)

    @classmethod
    def zero(cls, spec: JordanSpec) -> "JordanElement":
        return cls.from_coords(spec, (0,) * spec.dim)

    def coords(self) -> tuple:
        flat = list(self.diag)
        for block in self.upper:
            flat.extend(block)
        return tuple(flat)

    def entry(self, i: int, j: int):
        """The (i, j) matrix entry as a coordinate tuple of length delta."""
        d = self.spec.delta
        if i == j:
            return (self.diag[i],) + (0,) * (d - 1)
        if i < j:
            return self.upper[_pair_index(self.spec.k, i, j)]
        return cd_conj(self.upper[_pair_index(self.spec.k, j, i)])

    def grid(self):
        """Full matrix as nested lists of coordinate tuples (conjugated lower)."""
        return _grid_from_coords(self.spec, self.coords())

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.diag) and all(
            v == 0 for block in self.upper for v in block)

    def max_abs(self):
        return max(abs(v) for v in self.coords())

    def _check(self, other):
        if not isinstance(other, JordanElement):
            raise SpecMismatch(f"expected JordanElement, got {type(other).__name__}")
        if other.spec != self.spec:
            raise SpecMismatch(f"mixing specs {self.spec} and {other.spec}")

    def __add__(self, other):
        self._check(other)
        return JordanElement(
            self.spec,
            tuple(a + b for a, b in zip(self.diag, other.diag)),
            tuple(tuple(a + b for a, b in zip(u, v)) for u, v in zip(self.upper, other.upper)))

    def __sub__(self, other):
        self._check(other)
        return JordanElement(
            self.spec,
            tuple(a - b for a, b in zip(self.diag, other.diag)),
            tuple(tuple(a - b for a, b in zip(u, v)) for u, v in zip(self.upper, other.upper)))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "JordanElement":
        return JordanElement(self.spec,
                             tuple(c * v for v in self.diag),
                             tuple(tuple(c * v for v in u) for u in self.upper))

    def __rmul__(self, other):
        if isinstance(other, JordanElement):
            return NotImplemented
        return self.scale(other)

    def __mul__(self, other):
        if isinstance(other, JordanElement):
            return jordan_mul(self, other)
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, JordanElement):
            return NotImplemented
        return (self.spec == other.spec and self.diag == other.diag
                and self.upper == other.upper)

    def __hash__(self):
        return hash((self.spec, self.diag, self.upper))

    def __repr__(self):
        return f"JordanElement({self.spec.k}, {self.spec.delta}, {self.coords()})"


def identity(spec: JordanSpec) -> JordanElement:
    vec = [0] * spec.dim
    for i in range(spec.size):
        vec[i] = 1
    return JordanElement.from_coords(spec, vec)


def basis_element(spec: JordanSpec, idx: int) -> JordanElement:
    vec = [0] * spec.dim
    vec[idx] = 1
    return JordanElement.from_coords(spec, vec)


def diagonal_element(spec: JordanSpec, values) -> JordanElement:
    values = tuple(values)
    if len(values) != spec.size:
        raise SpecMismatch(f"expected {spec.size} diagonal values")
    return JordanElement.from_coords(spec, values + (0,) * (spec.dim - spec.size))


def random_element(spec: JordanSpec, rng, lo: int = -9, hi: int = 9) -> JordanElement:
    return JordanElement.from_coords(
        spec, tuple(rng.randint(lo, hi) for _ in range(spec.dim)))


# ---------------------------------------------------------------------------
# grid arithmetic (nested lists of coordinate tuples)

def _grid_from_coords(spec: JordanSpec, vec):
    s, d = spec.size, spec.delta
    zero_tail = (0,) * (d - 1)
    grid = [[None] * s for _ in range(s)]
    for i in range(s):
        grid[i][i] = (vec[i],) + zero_tail
    base = s
    for (i, j) in spec.pairs:
        x = tuple(vec[base:base + d])
        grid[i][j] = x
        grid[j][i] = cd_conj(x)
        base += d
    return grid


def _grid_sym_double(p, size: int):
    """P + P^H (conjugate transpose) entrywise."""
    out = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            x = p[i][j]
            y = p[j][i]
            out[i][j] = (x[0] + y[0],) + tuple(
                x[s] - y[s] for s in range(1, len(x)))
    return out


def _grid_flat_dot(a, b, size: int):
    """Sum of coordinatewise products over every entry of both grids."""
    total = 0
    for i in range(size):
        for j in range(size):
            x = a[i][j]
            y = b[i][j]
            for s in range(len(x)):
                if x[s] != 0 and y[s] != 0:
                    total += x[s] * y[s]
    return total


def _grid_trace(g, size: int):
    return sum(g[i][i][0] for i in range(size))


def _doubled_traces_from_grid(grid, size: int, delta: int, upto: int):
    """[T(D_1), ..., T(D_upto)] for D_m = 2^(m-1) A^m; division-free.

    D_{m+1} = A D_m + (A D_m)^H and T(D_{m+1}) = 2 <A, D_m> in flat
    coordinates, so the final power needs no matrix product at all.
    """
    doubled = [_grid_trace(grid, size)]
    d = grid
    for m in range(2, upto + 1):
        doubled.append(2 * _grid_flat_dot(grid, d, size))
        if m < upto:
            d = _grid_sym_double(grid_matmul(grid, d, size, delta), size)
    return doubled


@lru_cache(maxsize=None)
def _newton_tables(degree: int):
    """Integer-only Newton data: coefficients and final scale factors.

    With P_m = T(D_m) = 2^(m-1) p_m and f_j = sigma_j j! 2^j, Newton's
    identities become the integer recursion (f_0 = 1)

        f_j = 2 sum_{i=1..j} (-1)^(i-1) [(j-1)!/(j-i)!] f_{j-i} P_i,

    and sigma_j = f_j / (j! 2^j).
    """
    from math import factorial
    coeffs = []
    for j in range(1, degree + 1):
        row = []
        for i in range(1, j + 1):
            c = factorial(j - 1) // factorial(j - i)
            row.append((j - i, c if i % 2 else -c))
        coeffs.append(tuple(row))
    scales = tuple(Fraction(1, factorial(j) * 2 ** j) for j in range(1, degree + 1))
    return tuple(coeffs), scales


def _newton_integers(doubled, degree: int):
    """[f_0, ..., f_degree] of the integer recursion in _newton_tables."""
    coeffs, _ = _newton_tables(degree)
    f = [1]
    for row in coeffs:
        acc = 0
        for idx, c in row:
            acc += c * f[idx] * doubled[len(f) - 1 - idx]
        f.append(2 * acc)
    return f


# ---------------------------------------------------------------------------
# public operations

def jordan_mul(a: JordanElement, b: JordanElement) -> JordanElement:
    """Symmetrized product (AB + BA)/2.

    Both operands become int numerators over one denominator each, so the
    kernel multiplies plain ints. (AB)^H = BA for Hermitian A and B, since
    conj(xy) = conj(y) conj(x), so AB + BA = AB + (AB)^H needs one product.
    """
    a._check(b)
    spec = a.spec
    size = spec.size
    na, da = clear_row_denominators(a.coords())
    nb, db = clear_row_denominators(b.coords())
    p = _grid_sym_double(grid_matmul(_grid_from_coords(spec, na),
                                     _grid_from_coords(spec, nb), size, spec.delta),
                         size)
    scale = Fraction(1, 2 * da * db)
    diag = [p[i][i][0] * scale for i in range(size)]
    upper = [tuple(v * scale for v in p[i][j]) for (i, j) in spec.pairs]
    return JordanElement(spec, diag, upper)


def jordan_power(a: JordanElement, m: int) -> JordanElement:
    """Left-iterated power, A^0 = I, A^{m+1} = A * A^m."""
    if m < 0:
        raise ValueError("negative power")
    result = identity(a.spec)
    for _ in range(m):
        result = jordan_mul(a, result)
    return result


def char_coeffs(a: JordanElement) -> tuple:
    """(sigma_1, ..., sigma_{k+1}): generic characteristic coefficients."""
    spec = a.spec
    q = spec.degree
    doubled = _doubled_traces_from_grid(a.grid(), spec.size, spec.delta, q)
    _, scales = _newton_tables(q)
    return tuple(fj * s for fj, s in zip(_newton_integers(doubled, q)[1:], scales))


def generic_norm(a: JordanElement):
    """Q(A) = sigma_{k+1}; Q(I) = 1 and Q(diagonal) is the product."""
    return char_coeffs(a)[-1]


def jordan_rank(a: JordanElement, tol=0) -> int:
    """Largest j with sigma_j != 0 (float backend: above a scaled tolerance)."""
    sigma = char_coeffs(a)
    if tol:
        norm = sum(float(c) * float(c) for c in a.coords()) ** 0.5
        nonzero = [j + 1 for j, s in enumerate(sigma)
                   if abs(float(s)) > tol * (1 + norm ** (j + 1))]
    else:
        nonzero = [j + 1 for j, s in enumerate(sigma) if s != 0]
    return max(nonzero, default=0)


def mult_operator(a: JordanElement) -> LinearOperator:
    """Matrix of B -> A*B in canonical coordinates."""
    spec = a.spec
    cols = [jordan_mul(a, basis_element(spec, j)).coords() for j in range(spec.dim)]
    return LinearOperator(tuple(zip(*cols)), "V", "V")


def quadratic_rep(a: JordanElement) -> LinearOperator:
    """P(A) = 2 M(A)^2 - M(A^2)."""
    m = mult_operator(a)
    m2 = mult_operator(jordan_mul(a, a))
    mm = m.compose(m)
    mat = tuple(tuple(2 * x - y for x, y in zip(r1, r2))
                for r1, r2 in zip(mm.matrix, m2.matrix))
    return LinearOperator(mat, "V", "V")


def jordan_identity_residual(a: JordanElement, b: JordanElement):
    """Max residual coordinate of (A*B)*A^2 - A*(B*A^2)."""
    a2 = jordan_mul(a, a)
    lhs = jordan_mul(jordan_mul(a, b), a2)
    rhs = jordan_mul(a, jordan_mul(b, a2))
    return (lhs - rhs).max_abs()


@lru_cache(maxsize=None)
def norm_form(spec: JordanSpec) -> PolarizedForm:
    """The generic norm as a polarizable degree-(k+1) form on coordinates."""
    size, delta, q = spec.size, spec.delta, spec.degree
    # only f_q is scaled: scaling every sigma would cost q more Fraction
    # products per evaluation on the hottest path
    scale = _newton_tables(q)[1][q - 1]

    def evaluate(vec):
        grid = _grid_from_coords(spec, vec)
        return _newton_integers(
            _doubled_traces_from_grid(grid, size, delta, q), q)[q] * scale

    return PolarizedForm(degree=q, dim=spec.dim, func=evaluate,
                         name=f"Q[k={spec.k},delta={spec.delta}]")
