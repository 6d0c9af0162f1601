"""Composition algebras of dimension 1, 2, 4, 8 by Cayley-Dickson doubling.

Elements are coordinate tuples over the basis e_0 = 1, e_1, ..., e_{d-1},
where each doubling step glues two copies of the previous algebra with
doubling parameter -1:

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

so that e_{i + d/2} = e_i * e_{d/2} at every level. With this convention
dimension 1, 2, 4 are the reals, complexes and quaternions; dimension 8 is
the octonions (alternative but not associative).

Basis products are memoized as a table  table[i][j] = (k, sign)  meaning
e_i e_j = sign * e_k; general products expand bilinearly over the table.
"""

from __future__ import annotations

from functools import lru_cache

ALLOWED_DIMS = (1, 2, 4, 8)


class DimensionMismatch(ValueError):
    pass


def _check_dim(delta: int) -> None:
    if delta not in ALLOWED_DIMS:
        raise DimensionMismatch(f"composition algebra dimension must be one of "
                                f"{ALLOWED_DIMS}, got {delta}")


@lru_cache(maxsize=None)
def basis_table(delta: int):
    """table[i][j] = (k, sign) with e_i e_j = sign e_k."""
    _check_dim(delta)
    if delta == 1:
        return (((0, 1),),)
    n = delta // 2
    sub = basis_table(n)
    table = [[None] * delta for _ in range(delta)]
    for i in range(delta):
        for j in range(delta):
            if i < n and j < n:
                k, s = sub[i][j]
                table[i][j] = (k, s)
            elif i < n:  # (e_i, 0)(0, e_b) = (0, e_b e_i)
                b = j - n
                k, s = sub[b][i]
                table[i][j] = (k + n, s)
            elif j < n:  # (0, e_a)(e_j, 0) = (0, e_a conj(e_j))
                a = i - n
                k, s = sub[a][j]
                table[i][j] = (k + n, s if j == 0 else -s)
            else:  # (0, e_a)(0, e_b) = (-conj(e_b) e_a, 0)
                a, b = i - n, j - n
                k, s = sub[b][a]
                table[i][j] = (k, -s if b == 0 else s)
    return tuple(tuple(row) for row in table)


def cd_mul(x, y, delta: int):
    """Product of coordinate tuples in the dimension-``delta`` algebra."""
    table = basis_table(delta)
    out = [0] * delta
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            k, s = row[j]
            if s > 0:
                out[k] += xi * yj
            else:
                out[k] -= xi * yj
    return tuple(out)


def cd_conj(x):
    return (x[0],) + tuple(-v for v in x[1:])


def cd_norm(x):
    """N(x) = x conj(x): the Euclidean sum of squared coordinates."""
    return sum(v * v for v in x)


def cd_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def cd_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def cd_scale(c, x):
    return tuple(c * v for v in x)


def cd_zero(delta: int):
    return (0,) * delta


def cd_unit(delta: int, s: int = 0):
    return tuple(int(i == s) for i in range(delta))


class CDElement:
    """A composition-algebra element: immutable coordinate vector plus dim."""

    __slots__ = ("delta", "coords")

    def __init__(self, delta: int, coords):
        _check_dim(delta)
        coords = tuple(coords)
        if len(coords) != delta:
            raise DimensionMismatch(f"expected {delta} coordinates, got {len(coords)}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("CDElement is immutable")

    @classmethod
    def from_real(cls, delta: int, value) -> "CDElement":
        return cls(delta, (value,) + (0,) * (delta - 1))

    @classmethod
    def basis(cls, delta: int, s: int) -> "CDElement":
        return cls(delta, cd_unit(delta, s))

    @classmethod
    def zero(cls, delta: int) -> "CDElement":
        return cls(delta, cd_zero(delta))

    def _coerce(self, other):
        if isinstance(other, CDElement):
            if other.delta != self.delta:
                raise DimensionMismatch(f"mixing dimensions {self.delta} and {other.delta}")
            return other
        if isinstance(other, (int, float)) or hasattr(other, "denominator"):
            return CDElement.from_real(self.delta, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CDElement(self.delta, cd_add(self.coords, other.coords))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CDElement(self.delta, cd_sub(self.coords, other.coords))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CDElement(self.delta, cd_sub(other.coords, self.coords))

    def __neg__(self):
        return CDElement(self.delta, tuple(-v for v in self.coords))

    def __mul__(self, other):
        if isinstance(other, CDElement):
            if other.delta != self.delta:
                raise DimensionMismatch(f"mixing dimensions {self.delta} and {other.delta}")
            return CDElement(self.delta, cd_mul(self.coords, other.coords, self.delta))
        return CDElement(self.delta, cd_scale(other, self.coords))

    def __rmul__(self, other):
        # scalars commute with everything
        return CDElement(self.delta, cd_scale(other, self.coords))

    def conj(self) -> "CDElement":
        return CDElement(self.delta, cd_conj(self.coords))

    def norm(self):
        return cd_norm(self.coords)

    def real(self):
        return self.coords[0]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coords)

    def __eq__(self, other):
        if isinstance(other, CDElement):
            return self.delta == other.delta and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.delta, self.coords))

    def __repr__(self):
        terms = []
        for s, v in enumerate(self.coords):
            if v == 0:
                continue
            terms.append(f"{v}" if s == 0 else f"{v}*e{s}")
        return " + ".join(terms) if terms else "0"


def associator(x, y, z, delta: int):
    """(xy)z - x(yz) on coordinate tuples."""
    return cd_sub(cd_mul(cd_mul(x, y, delta), z, delta),
                  cd_mul(x, cd_mul(y, z, delta), delta))
