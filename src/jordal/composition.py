"""Composition algebras of dimension 1, 2, 4, 8 by Cayley-Dickson doubling.

Elements are coordinate tuples over the basis e_0 = 1, e_1, ..., e_{d-1},
where each doubling step glues two copies of the previous algebra with
doubling parameter -1:

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

so that e_{i + d/2} = e_i * e_{d/2} at every level. With this convention
dimension 1, 2, 4 are the reals, complexes and quaternions; dimension 8 is
the octonions (alternative but not associative).

``unit_table`` applies the rule to basis units, e_s e_t = +-e_u, and every
product is read from it: ``compile_bilinear`` turns the signed terms of a
bilinear map into one straight-line function of two coordinate tuples, and
``cd_mul`` runs the one compiled from the table. The generated code uses
only +, - and *, so the same function serves ints, floats and symbolic
coordinates.
"""

from __future__ import annotations

from functools import lru_cache
from operator import neg

from .linalg import total

ALLOWED_DIMS = (1, 2, 4, 8)

# most terms summed in one chain of the generated code; CPython's compiler
# recurses once per + and fails near 3000 of them, and groups of groups keep
# every chain this short
_GROUP = 64


class DimensionMismatch(ValueError):
    pass


def _check_dim(delta: int) -> None:
    if delta not in ALLOWED_DIMS:
        raise DimensionMismatch(f"composition algebra dimension must be one of "
                                f"{ALLOWED_DIMS}, got {delta}")


@lru_cache(maxsize=None)
def unit_table(delta: int) -> tuple:
    """table[s][t] = (u, sign) with e_s e_t = sign e_u, by doubling from
    the reals."""
    _check_dim(delta)
    table = (((0, 1),),)
    while len(table) < delta:
        table = _doubled(table)
    return table


def _doubled(half: tuple) -> tuple:
    """The unit table of the doubled algebra, from the table of the half.

    With n = len(half), e_s = (e_s, 0) and e_{n+s} = (0, e_s), and the
    doubling rule gives (e_a, 0)(e_b, 0) = (e_a e_b, 0),
    (e_a, 0)(0, e_b) = (0, e_b e_a), (0, e_a)(e_b, 0) = (0, e_a conj(e_b))
    and (0, e_a)(0, e_b) = (-conj(e_b) e_a, 0), where conj(e_b) = e_b for
    b = 0 and -e_b otherwise.
    """
    n = len(half)

    def entry(s, t):
        a, b = s % n, t % n
        conj = 1 if b == 0 else -1
        if s < n and t < n:
            return half[a][b]
        if s < n:
            u, sign = half[b][a]
            return u + n, sign
        if t < n:
            u, sign = half[a][b]
            return u + n, sign * conj
        u, sign = half[b][a]
        return u, -sign * conj

    return tuple(tuple(entry(s, t) for t in range(2 * n)) for s in range(2 * n))


def _sum(terms) -> str:
    """The sum of terms (c, text), each standing for c * text, written with
    no chain of + and - longer than _GROUP: a longer one is summed in
    parenthesized groups."""
    while len(terms) > _GROUP:
        terms = [(1, f"({_sum(terms[i:i + _GROUP])})")
                 for i in range(0, len(terms), _GROUP)]
    text = "".join((" - " if c < 0 else " + ")
                   + (t if abs(c) == 1 else f"{abs(c)}*{t}") for c, t in terms)
    return text[3:] if terms[0][0] > 0 else "-" + text[3:]


def compile_bilinear(nx: int, ny: int, outputs):
    """The function (x, y) -> tuple of a bilinear map, as straight-line code.

    x and y are sequences of lengths nx and ny; outputs holds, for each
    result coordinate, its terms (c, a, b) standing for c x[a] y[b], emitted
    in the given order, as x_a*y_b or, when |c| > 1, as |c|*x_a*y_b.
    """
    lines = ["def bilinear(x, y):",
             "    " + "".join(f"x{a}, " for a in range(nx)) + "= x",
             "    " + "".join(f"y{b}, " for b in range(ny)) + "= y",
             "    return ("]
    lines += [f"        {_sum([(c, f'x{a}*y{b}') for c, a, b in coord])},"
              for coord in outputs]
    lines.append("    )")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["bilinear"]


@lru_cache(maxsize=None)
def _mul_kernel(delta: int):
    """x y in the dimension-delta algebra, compiled from unit_table."""
    outputs = [[] for _ in range(delta)]
    for s, row in enumerate(unit_table(delta)):
        for t, (u, sign) in enumerate(row):
            outputs[u].append((sign, s, t))
    return compile_bilinear(delta, delta, outputs)


def cd_mul(x, y, delta: int):
    """Product of coordinate tuples in the dimension-``delta`` algebra."""
    return _mul_kernel(delta)(x, y)


def cd_conj(x):
    return (x[0], *map(neg, x[1:]))


def cd_norm(x):
    """N(x) = x conj(x): the Euclidean sum of squared coordinates."""
    return total(v * v for v in x)
