"""Composition algebras of dimension 1, 2, 4, 8 by Cayley-Dickson doubling.

Elements are coordinate tuples over the basis e_0 = 1, e_1, ..., e_{d-1},
where each doubling step glues two copies of the previous algebra with
doubling parameter -1:

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

so that e_{i + d/2} = e_i * e_{d/2} at every level. With this convention
dimension 1, 2, 4 are the reals, complexes and quaternions; dimension 8 is
the octonions (alternative but not associative).

Products run through one kernel, ``grid_matmul``: the plain product of two
square matrices with entries in the algebra, unrolled for each dimension.
A single product x y is its 1 x 1 case. The kernel computes every entry
without skipping zeros, so callers that hold Fractions clear denominators
first and feed it int numerators.
"""

from __future__ import annotations

from operator import neg

ALLOWED_DIMS = (1, 2, 4, 8)


class DimensionMismatch(ValueError):
    pass


def _check_dim(delta: int) -> None:
    if delta not in ALLOWED_DIMS:
        raise DimensionMismatch(f"composition algebra dimension must be one of "
                                f"{ALLOWED_DIMS}, got {delta}")


def grid_matmul(a, b, size: int, delta: int):
    """Plain (nonassociative-entry) product of size x size matrices.

    Entries are coordinate tuples of the dimension-``delta`` algebra; each
    of the four dimensions has its own unrolled branch. No entry is skipped
    when zero, so the kernel is fastest on plain int coordinates.
    """
    out = [[None] * size for _ in range(size)]
    rng = range(size)
    if delta == 1:
        for i in rng:
            ai = a[i]
            for j in rng:
                out[i][j] = (sum(ai[l][0] * b[l][j][0] for l in rng),)
        return out
    if delta == 2:
        for i in rng:
            ai = a[i]
            for j in rng:
                a0 = a1 = 0
                for l in rng:
                    x0, x1 = ai[l]
                    y0, y1 = b[l][j]
                    a0 += x0 * y0 - x1 * y1
                    a1 += x0 * y1 + x1 * y0
                out[i][j] = (a0, a1)
        return out
    if delta == 4:
        # Hamilton product in this basis (e1 e2 = e3, cyclic)
        for i in rng:
            ai = a[i]
            for j in rng:
                a0 = a1 = a2 = a3 = 0
                for l in rng:
                    x0, x1, x2, x3 = ai[l]
                    y0, y1, y2, y3 = b[l][j]
                    a0 += x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3
                    a1 += x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2
                    a2 += x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1
                    a3 += x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0
                out[i][j] = (a0, a1, a2, a3)
        return out
    _check_dim(delta)
    # delta == 8: the doubling formula applied to the Hamilton product above
    for i in rng:
        ai = a[i]
        for j in rng:
            a0 = a1 = a2 = a3 = a4 = a5 = a6 = a7 = 0
            for l in rng:
                x0, x1, x2, x3, x4, x5, x6, x7 = ai[l]
                y0, y1, y2, y3, y4, y5, y6, y7 = b[l][j]
                a0 += x0*y0 - x1*y1 - x2*y2 - x3*y3 - x4*y4 - x5*y5 - x6*y6 - x7*y7
                a1 += x0*y1 + x1*y0 + x2*y3 - x3*y2 + x4*y5 - x5*y4 - x6*y7 + x7*y6
                a2 += x0*y2 - x1*y3 + x2*y0 + x3*y1 + x4*y6 + x5*y7 - x6*y4 - x7*y5
                a3 += x0*y3 + x1*y2 - x2*y1 + x3*y0 + x4*y7 - x5*y6 + x6*y5 - x7*y4
                a4 += x0*y4 - x1*y5 - x2*y6 - x3*y7 + x4*y0 + x5*y1 + x6*y2 + x7*y3
                a5 += x0*y5 + x1*y4 - x2*y7 + x3*y6 - x4*y1 + x5*y0 - x6*y3 + x7*y2
                a6 += x0*y6 + x1*y7 + x2*y4 - x3*y5 - x4*y2 + x5*y3 + x6*y0 - x7*y1
                a7 += x0*y7 - x1*y6 + x2*y5 + x3*y4 - x4*y3 - x5*y2 + x6*y1 + x7*y0
            out[i][j] = (a0, a1, a2, a3, a4, a5, a6, a7)
    return out


def cd_mul(x, y, delta: int):
    """Product of coordinate tuples in the dimension-``delta`` algebra."""
    return grid_matmul(((x,),), ((y,),), 1, delta)[0][0]


def cd_conj(x):
    return (x[0], *map(neg, x[1:]))


def cd_norm(x):
    """N(x) = x conj(x): the Euclidean sum of squared coordinates."""
    return sum(v * v for v in x)

