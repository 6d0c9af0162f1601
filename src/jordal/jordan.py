"""Hermitian Jordan algebras H_{k+1}(K) over composition algebras.

Elements are (k+1)x(k+1) matrices with scalar diagonal and entries in the
dimension-delta composition algebra above the diagonal, the conjugates
below. The product is the symmetrized one, A*B = (AB + BA)/2, with
AB + BA = AB + (AB)^H. Once per shape, _product_kernel expands that sum
into its bilinear terms c x_a y_b in canonical coordinates, from
composition.unit_table and the block layout, and compiles them into one
straight-line function (composition.compile_bilinear). It uses only +, -
and *, so int numerators, floats and the symbolic coordinates that build
Q's table all run through it.

Canonical coordinates: the k+1 diagonal units first, then for each pair
i < j (lexicographic) and each algebra basis unit e_s the matrix E_ij(e_s)
carrying e_s at (i, j) and conj(e_s) at (j, i). So

    dimV = (k+1)(2 + k delta)/2.

An element holds the int numerators of its canonical coordinates over one
positive denominator, in lowest terms; in float mode, floats over 1
(linalg.over decides the format). The product, sums, scaling, comparisons
and the characteristic coefficients run on the numerators, so exact
arithmetic builds no Fraction. ``cleared`` reads an element as the pair
(numerators, denominator) that reduced and every polarization take, and
``lifted`` carries it into a backend; coords() builds values on each call,
for display and comparison. Only this module knows the layout: _layout writes it
(for from_entries and the product kernel) and _grid_from_coords reads it (for
grid() and, once per shape, the product kernel).

The generic characteristic coefficients sigma_1..sigma_{k+1} come from
Newton's identities over the power traces p_m = T(A^m), T = Re Tr; the
generic norm is Q = sigma_{k+1}, normalized so Q(identity) = 1. Power traces
are computed on doubled powers D_m = 2^(m-1) A^m, which satisfy the
division-free recursion D_{m+1} = A D_m + (A D_m)^H, so integer input stays
integer until the final trace normalization. Only D_1..D_ceil(q/2) are
built, as T(D_m) = 2 T(D_floor(m/2) D_ceil(m/2)). This holds at every shape,
(3,8) included: Re Tr is cyclic and ignores bracketing over every
composition algebra (an octonion associator has zero real part), so the
trace form T(X*Y) is associative (Faraut and Koranyi, 1994). _newton runs
the recursion as written, for char_coeffs and the norm form alike.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add, mul, sub

from .backend import EXACT
from .composition import (ALLOWED_DIMS, DimensionMismatch, cd_conj, compile_bilinear,
                          unit_table)
from .linalg import LinearOperator, clear_row_denominators, over, total
from .polarization import PolarizedForm
from .rng import sample_coords


class SpecMismatch(ValueError):
    pass


class JordanSpec(namedtuple("JordanSpec", "k delta")):
    """Shape parameters: matrices of size k+1, entry algebra of dimension delta."""

    __slots__ = ()

    def __new__(cls, k: int, delta: int):
        if type(k) is not int:
            raise ValueError(f"k must be an integer, got {k!r}")
        if k < 2:
            raise ValueError(f"k must be at least 2, got {k}")
        if type(delta) is not int or delta not in ALLOWED_DIMS:
            raise DimensionMismatch(f"delta must be one of {ALLOWED_DIMS}, got {delta!r}")
        return super().__new__(cls, k, delta)

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make, whose default skips __new__'s checks
        return cls(*fields)

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


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple:
    return tuple((i, j) for i in range(k + 1) for j in range(i + 1, k + 1))


class JordanElement:
    """Immutable element: int numerators of its canonical coordinates over
    one positive denominator in lowest terms, or floats over 1."""

    __slots__ = ("spec", "_nums", "_den")

    def __init__(self, spec: JordanSpec, coords):
        coords = tuple(coords)
        if len(coords) != spec.dim:
            raise SpecMismatch(f"expected {spec.dim} coordinates, got {len(coords)}")
        _init(self, spec, *clear_row_denominators(coords))

    def __setattr__(self, *_):
        raise AttributeError("JordanElement is immutable")

    def coords(self) -> tuple:
        """The canonical coordinates as values (ints and Fractions, or floats)."""
        den = self._den
        return self._nums if den == 1 else tuple(Fraction(v, den) for v in self._nums)

    def grid(self):
        """Full matrix as nested lists of coordinate tuples (conjugated lower)."""
        return _grid_from_coords(self.spec, self.coords())

    @property
    def cleared(self) -> tuple:
        """(numerators, denominator): as reduced and polarization take it."""
        return self._nums, self._den

    def lifted(self, backend) -> "JordanElement":
        """The same element in the arithmetic of backend (floats in float mode)."""
        return reduced(self.spec, backend.lift(self._nums), self._den)

    def dot(self, nums, den):
        """The covector nums / den (int numerators over an int denominator,
        as covector_slot and LinearOperator.apply give it) at this element:
        one dot of numerators, divided once."""
        (v,), d = over((total(map(mul, nums, self._nums)),), den * self._den)
        return v if d == 1 else Fraction(v, d)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def max_abs(self):
        m = max(map(abs, self._nums))
        return m if self._den == 1 else Fraction(m, self._den)

    def _check(self, other):
        if not isinstance(other, JordanElement):
            raise SpecMismatch(f"expected JordanElement, got {type(other).__name__}")
        if other.spec != self.spec:
            raise SpecMismatch(f"mixing specs {self.spec} and {other.spec}")

    def _combine(self, other, op):
        """op (add or sub) coordinatewise, on the numerators."""
        self._check(other)
        da, db = self._den, other._den
        if da == db:
            return reduced(self.spec, tuple(map(op, self._nums, other._nums)), da)
        return reduced(self.spec, tuple(op(x * db, y * da) for x, y in
                                        zip(self._nums, other._nums)), da * db)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def scale(self, c) -> "JordanElement":
        (n,), d = clear_row_denominators((c,))
        return reduced(self.spec, tuple([n * v for v in self._nums]), self._den * d)

    def __eq__(self, other):
        if not isinstance(other, JordanElement):
            return NotImplemented
        if self.spec != other.spec:
            return False
        if self._den == other._den:
            return self._nums == other._nums
        # exact elements in lowest terms with other denominators differ; an
        # element holding floats is compared by value
        return not all(type(v) is int for v in self._nums + other._nums) and (
            self.coords() == other.coords())

    def __repr__(self):
        return f"JordanElement({self.spec.k}, {self.spec.delta}, {self.coords()})"


def _init(e: JordanElement, spec: JordanSpec, nums: tuple, den):
    object.__setattr__(e, "spec", spec)
    object.__setattr__(e, "_nums", nums)
    object.__setattr__(e, "_den", den)


def reduced(spec: JordanSpec, nums: tuple, den: int) -> JordanElement:
    """The element nums / den in the number format linalg.over decides: int
    numerators in lowest terms, or, where a float is among them, floats
    over 1."""
    nums, den = over(nums, den)
    e = JordanElement.__new__(JordanElement)
    _init(e, spec, nums, den)
    return e


def identity(spec: JordanSpec) -> JordanElement:
    return JordanElement(spec, (1,) * spec.size + (0,) * (spec.dim - spec.size))


def basis_element(spec: JordanSpec, idx: int) -> JordanElement:
    vec = [0] * spec.dim
    vec[idx] = 1
    return JordanElement(spec, vec)


def random_element(spec: JordanSpec, rng) -> JordanElement:
    return reduced(spec, sample_coords(rng, spec.dim), 1)


def from_entries(spec: JordanSpec, entry) -> JordanElement:
    """The element whose (i, j) entry, for i <= j, is entry(i, j).

    entry(i, j) is a delta-tuple for i < j and, on the diagonal, the one real
    scalar stored there.
    """
    return JordanElement(spec, _layout(spec, entry))


def _layout(spec: JordanSpec, entry) -> list:
    """The canonical coordinate list of the entries entry(i, j), i <= j.

    This writes the layout and _grid_from_coords reads it; no other code
    knows where an entry's coordinates go.
    """
    vec = [entry(i, i) for i in range(spec.size)]
    for (i, j) in spec.pairs:
        vec.extend(entry(i, j))
    return vec


# ---------------------------------------------------------------------------
# the product kernel

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


@lru_cache(maxsize=None)
def _product_kernel(spec: JordanSpec):
    """The function (x, y) -> canonical coordinates of AB + BA, for A and B
    given by theirs, compiled once per shape.

    The grid of the coordinates 1..dim names, at each entry and unit, the
    coordinate found there and its sign (negative where conjugated, 0 for
    none). (AB)[i][j] then expands through unit_table into terms
    c x_a y_b, and AB + BA = AB + (AB)^H, since (AB)^H = BA for Hermitian
    A and B: twice the real part of (AB)[i][i] on the diagonal, and
    (AB)[i][j] + conj((AB)[j][i]) above it.
    """
    s, d = spec.size, spec.delta
    table = unit_table(d)
    # held[i][j]: (unit, coordinate, sign) of each coordinate entry (i, j) holds
    held = [[[(u, abs(v) - 1, 1 if v > 0 else -1) for u, v in enumerate(e) if v]
             for e in row]
            for row in _grid_from_coords(spec, tuple(range(1, spec.dim + 1)))]

    def ab(i, j):
        """(AB)[i][j] as, per unit e_u, {(a, b): c} for the terms c x_a y_b."""
        out = [{} for _ in range(d)]
        for l in range(s):
            for ua, a, sa in held[i][l]:
                for ub, b, sb in held[l][j]:
                    u, sign = table[ua][ub]
                    out[u][a, b] = out[u].get((a, b), 0) + sa * sb * sign
        return out

    def combined(p, q, sign):
        """The terms (c, a, b) of p + sign q, sorted by (a, b)."""
        total = dict(p)
        for key, c in q.items():
            total[key] = total.get(key, 0) + sign * c
        return [(c, a, b) for (a, b), c in sorted(total.items()) if c]

    def entry(i, j):
        p = ab(i, j)
        if i == j:
            return combined(p[0], p[0], 1)
        q = ab(j, i)
        return [combined(p[0], q[0], 1)] + [combined(p[u], q[u], -1)
                                            for u in range(1, d)]

    return compile_bilinear(spec.dim, spec.dim, _layout(spec, entry))


def _sym_product(spec: JordanSpec, x, y) -> tuple:
    """The canonical coordinates of AB + BA, for A and B given by theirs."""
    return _product_kernel(spec)(x, y)


def _trace_pairing(spec: JordanSpec, x, y):
    """T(XY) for X and Y given by their canonical coordinates: the diagonal
    coordinates once and the off-diagonal ones twice, since the (i, j) and
    (j, i) entries contribute <x_ij, y_ij> each."""
    s = spec.size
    return total(map(mul, x[:s], y[:s])) + 2 * total(map(mul, x[s:], y[s:]))


def _power_traces(spec: JordanSpec, x, upto: int) -> list:
    """[T(D_1), ..., T(D_upto)] for the doubled powers D_m = 2^(m-1) A^m of
    the element with canonical coordinates x; division-free.

    D_{m+1} = A D_m + D_m A builds D_2..D_ceil(upto/2), and
    T(D_m) = 2 T(D_floor(m/2) D_ceil(m/2)) by the associativity of the
    trace form, so no power past half the degree is built.
    """
    d = [None, x]  # d[m] = D_m
    for _ in range(2, (upto + 1) // 2 + 1):
        d.append(_sym_product(spec, x, d[-1]))
    return [total(x[:spec.size])] + [2 * _trace_pairing(spec, d[m // 2], d[m - m // 2])
                                    for m in range(2, upto + 1)]


def _newton(traces) -> list:
    """[f_1, ..., f_q] from the traces [P_1, ..., P_q] of the doubled powers.

    With P_m = T(D_m) = 2^(m-1) p_m and f_j = sigma_j j! 2^j, Newton's
    identities become the integer recursion (f_0 = 1)

        f_j = 2 sum_{i=1..j} (-1)^(i-1) [(j-1)!/(j-i)!] f_{j-i} P_i,

    and sigma_j = f_j * _newton_scale(j).
    """
    f = [1]
    for j in range(1, len(traces) + 1):
        acc, c = 0, 1  # c = (j-1)!/(j-i)!
        for i in range(1, j + 1):
            acc += (c if i % 2 else -c) * f[j - i] * traces[i - 1]
            c *= j - i
        f.append(2 * acc)
    return f[1:]


def _newton_scale(j: int) -> Fraction:
    """1 / (j! 2^j), which takes f_j to sigma_j."""
    return Fraction(1, factorial(j) * 2 ** j)


# ---------------------------------------------------------------------------
# public operations

def jordan_mul(a: JordanElement, b: JordanElement) -> JordanElement:
    """Symmetrized product (AB + BA)/2.

    The kernel multiplies the operands' numerators, and the result is
    reduced once, by the gcd of its numerators and denominator.
    """
    a._check(b)
    return reduced(a.spec, _sym_product(a.spec, a._nums, b._nums),
                   2 * a._den * b._den)


def char_coeffs(a: JordanElement) -> tuple:
    """(sigma_1, ..., sigma_{k+1}): generic characteristic coefficients.

    sigma_j is homogeneous of degree j, so it is computed on the numerator
    grid and divided by den^j.
    """
    f = _newton(_power_traces(a.spec, a._nums, a.spec.degree))
    den = a._den
    return tuple(fj * _newton_scale(j) / den ** j for j, fj in enumerate(f, start=1))


def jordan_rank(a: JordanElement, backend=EXACT) -> int:
    """Largest j with sigma_j nonzero; sigma_j is compared at scale |A|^j."""
    sigma = char_coeffs(a)
    den = a._den
    floats = [float(v) for v in a._nums] if den == 1 else [v / den for v in a._nums]
    norm = total(x * x for x in floats) ** 0.5
    return max((j + 1 for j, s in enumerate(sigma)
                if not backend.is_zero(s, norm ** (j + 1))), default=0)


def operator_from_action(spec: JordanSpec, action) -> LinearOperator:
    """The V -> V operator of a linear map, from its images of the basis."""
    cols = [action(basis_element(spec, j)) for j in range(spec.dim)]
    den = lcm(*(c._den for c in cols))
    nums = [c._nums if c._den == den else tuple(v * (den // c._den) for v in c._nums)
            for c in cols]
    return LinearOperator(tuple(zip(*nums)), den, "V", "V")


def mult_operator(a: JordanElement) -> LinearOperator:
    """Matrix of B -> A*B in canonical coordinates."""
    return operator_from_action(a.spec, lambda b: jordan_mul(a, b))


def quadratic_rep(a: JordanElement) -> LinearOperator:
    """P(A) = 2 M(A)^2 - M(A^2), from its action B -> 2 A*(A*B) - A^2*B."""
    a2 = jordan_mul(a, a)
    return operator_from_action(
        a.spec, lambda b: jordan_mul(a, jordan_mul(a, b)).scale(2) - jordan_mul(a2, b))


@lru_cache(maxsize=None)
def norm_form(spec: JordanSpec) -> PolarizedForm:
    """The generic norm as a polarizable degree-(k+1) form on coordinates.

    The trace evaluator runs once, on symbolic coordinates, and the form
    keeps the monomial table it expands to.
    """
    q = spec.degree
    scale = _newton_scale(q)

    def evaluate(vec):
        return _newton(_power_traces(spec, vec, q))[-1] * scale

    return PolarizedForm(degree=q, dim=spec.dim, func=evaluate,
                         name=f"Q[k={spec.k},delta={spec.delta}]")
