"""Polarization of homogeneous forms by inclusion-exclusion on evaluations.

For a degree-q form F, the symmetric multilinear polarization F~ satisfies
F~(x,...,x) = F(x). The full polarization over q distinct slots is the
classical alternating-subset-sum identity, which is the case m = q, B = 0
of the partial polarization below. Partial polarization with a
repeated base B (multiplicity q - m) and slots r_1..r_m uses

    h(u) = sum_{S subset {1..m}} (-1)^(m-|S|) F(B + u * sum_{i in S} r_i),

whose expansion contains only monomials with every slot-degree >= 1, so h
has valuation >= m and the coefficient of u^m is exactly the mixed-linear
term. That coefficient is recovered exactly by interpolating h(u)/u^m at
the integer nodes u = 1..q-m+1:

    F~(B^(q-m), r_1, ..., r_m) = (q-m)!/q! * [u^m] h(u).

So one call costs (2^m - 1)(q - m + 1) + 1 evaluations of F (2^m - 1
subset directions plus the shared base value); for m = q this collapses to
the classical 2^q - 1 plus F(0).

Forms cache evaluations keyed by the coordinate tuple. Exact input (ints
and Fractions only) is keyed by the tuple itself, and rational input is
rescaled to integers once per evaluation (F(z/d) = F(z)/d^q), which keeps
the expensive inner arithmetic on plain ints. Any other tuple, such as the
floats of float mode, is evaluated as given and keyed as (float, tuple):
1.0 == 1 and hash(1.0) == hash(1), so without the tag a float vector would
be answered from an exact entry and an exact vector from a float one.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .linalg import EXACT_TYPES, common_denominator

_MISS = object()


class ArityError(ValueError):
    pass


class PolarizedForm:
    """A homogeneous form of known degree on coordinate vectors."""

    def __init__(self, degree: int, dim: int, func, name: str = "form",
                 cache_size: int = 50000):
        self.degree = degree
        self.dim = dim
        self.func = func
        self.name = name
        self.cache_size = cache_size
        self._cache = {}
        # forms are shared (frames cache them), so eviction plus insert must
        # be atomic when trials run on worker threads; plain reads are fine
        self._lock = threading.Lock()
        self.evaluations = 0  # underlying func calls (cache misses)
        self.calls = 0

    def __call__(self, vec):
        vec = tuple(vec)
        if len(vec) != self.dim:
            raise ArityError(f"{self.name}: expected {self.dim} coordinates, "
                             f"got {len(vec)}")
        self.calls += 1
        exact = EXACT_TYPES.issuperset(map(type, vec))
        key = vec if exact else (float, vec)
        cached = self._cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        d = common_denominator(vec) if exact else 1
        if d != 1:
            scaled = tuple(int(v * d) for v in vec)
            value = self(scaled) * Fraction(1, d ** self.degree)
        elif exact and any(isinstance(v, Fraction) for v in vec):
            # integral Fractions: normalize the key to plain ints
            value = self(tuple(int(v) for v in vec))
        else:
            value = self.func(vec)
            self.evaluations += 1
        with self._lock:
            if len(self._cache) >= self.cache_size:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = value
        return value

    def __repr__(self):
        return f"PolarizedForm({self.name}, degree={self.degree}, dim={self.dim})"


def _vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _vec_scale(c, x):
    return tuple(c * v for v in x)


@lru_cache(maxsize=None)
def derivative_at_zero_weights(nodes: tuple, order: int = 1) -> tuple:
    """Weights w with sum w_j p(x_j) = p^(order)(0) for deg(p) < len(nodes).

    Computed by expanding each Lagrange basis polynomial exactly.
    """
    n = len(nodes)
    ws = []
    for j, xj in enumerate(nodes):
        # expand prod_{l != j} (x - x_l)
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for l, xl in enumerate(nodes):
            if l == j:
                continue
            denom *= xj - xl
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for p, c in enumerate(coeffs):
                nxt[p + 1] += c
                nxt[p] -= c * xl
            coeffs = nxt
        w = coeffs[order] * factorial(order) / denom if order < n else Fraction(0)
        ws.append(w)
    return tuple(ws)


def full_polarize(form: PolarizedForm, args):
    """F~(args_1, ..., args_q): the partial polarization with no base."""
    return partial_polarize(form, (0,) * form.dim, 0, args)


def partial_polarize(form: PolarizedForm, base, mult: int, rest):
    """F~(base repeated mult times, rest_1, ..., rest_m)."""
    q = form.degree
    rest = [tuple(r) for r in rest]
    m = len(rest)
    if mult < 0 or mult + m != q:
        raise ArityError(f"multiplicity {mult} plus {m} slots must equal degree {q}")
    base = tuple(base)
    if m == 0:
        return form(base)
    nodes = tuple(range(1, q - m + 2))
    weights = derivative_at_zero_weights(nodes, 0)
    base_value = form(base)
    sign_base = -1 if m % 2 else 1
    # subset direction sums
    dirs = [None] * (1 << m)
    dirs[0] = (0,) * form.dim
    for mask in range(1, 1 << m):
        low = mask & -mask
        dirs[mask] = _vec_add(dirs[mask ^ low], rest[low.bit_length() - 1])
    acc = 0
    for u, w in zip(nodes, weights):
        h = sign_base * base_value
        for mask in range(1, 1 << m):
            value = form(_vec_add(base, _vec_scale(u, dirs[mask])))
            if (m - mask.bit_count()) % 2:
                h = h - value
            else:
                h = h + value
        acc = acc + w * h * Fraction(1, u ** m)
    return acc * Fraction(factorial(q - m), factorial(q))


def covector_slot(form: PolarizedForm, fixed):
    """The functional x -> F~(fixed..., x) on the canonical basis.

    Materialized as a coordinate covector of length form.dim. The most
    frequent fixed argument is used as the partial-polarization base, which
    maximizes node sharing through the evaluation cache.
    """
    q = form.degree
    fixed = [tuple(f) for f in fixed]
    if len(fixed) != q - 1:
        raise ArityError(f"covector slot of a degree-{q} form needs {q - 1} "
                         f"fixed arguments, got {len(fixed)}")
    counts = {}
    for f in fixed:
        counts[f] = counts.get(f, 0) + 1
    base = max(counts, key=lambda f: counts[f])
    mult = counts[base]
    rest = list(fixed)
    for _ in range(mult):
        rest.remove(base)
    dim = form.dim
    out = []
    for c in range(dim):
        e_c = tuple(int(i == c) for i in range(dim))
        out.append(partial_polarize(form, base, mult, rest + [e_c]))
    return tuple(out)
