"""Polarization of homogeneous forms by contraction of their monomial table.

A PolarizedForm is built from a function that evaluates a degree-q form F
on a coordinate vector. The function runs once, on symbolic coordinates (a
small sparse polynomial type), which expands F into its monomial table

    F(x) = 1/denominator * sum_{(i_1 <= ... <= i_q, c)} c x_{i_1} ... x_{i_q},

with integer coefficients c when F is rational.

Given a weight per index for each coordinate and a bound, as norm_form gives
them, the expansion runs modulo the monomials that weigh more than the bound
at some index: each product drops them as it forms. That is reduction modulo
a monomial ideal, so it is exact when every monomial of F weighs exactly the
bound at every index. PolarizedForm checks this first, comparing F at a
random integer point with F at the point's image under the torus, and where
they disagree it expands F in full.

The symmetric multilinear polarization F~ with F~(x, ..., x) = F(x) is a sum
over the table: for a base B repeated q - m times and slots r_1..r_m,

    F~(B^(q-m), r_1, ..., r_m) = (q-m)!/q! * 1/denominator
        * sum c [t_1 ... t_m] prod_p (B_{i_p} + sum_s t_s r_s[i_p]),

where [t_1 ... t_m] takes the coefficient of t_1 ... t_m, one recurrence
over the positions p of each monomial. The covector x -> F~(B^(q-1-m),
r_1..r_m, x) collects the same coefficient with one position dropped at a
time, at that position's index, scaled by (q-1-m)!/q!; the pair matrix
F~(B^(q-2), e_i, e_j) collects the base product over the other positions
for every pair of positions. Each contraction reads the table once.

Every vector argument is a pair (numerators, denominator), ``a.cleared`` for
an element and (coords, 1) for an integer draw; a bare tuple of values
raises ArityError. The contraction runs on the numerators and the result is
divided once, through linalg.over, which decides the number format: int
numerators give exact values, floats over 1 give floats. Covectors and pair
matrices leave as numerators over one denominator; only a scalar becomes a value.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import factorial, prod

from .linalg import clear_row_denominators, over, value
from .rng import stream_rng


class ArityError(ValueError):
    pass


class _Poly:
    """Sparse polynomial {sorted variable-index tuple: coefficient}, reduced
    modulo the monomials that weigh more than a bound at some index.

    It has just the arithmetic a form's evaluator uses (+, -, *, ** and
    comparison with 0), so running the evaluator on _Poly coordinates
    expands the form. ``grading`` is _grading's (weight, bias, over),
    shared by every polynomial of one expansion: a product of two monomials
    is dropped when its weight, biased, sets a bit of ``over``. Weights are
    never negative, so the dropped monomials span an ideal and each product
    is reduced modulo it; with no indices, every weight is 0 and nothing is
    dropped.
    """

    __slots__ = ("terms", "grading")

    def __init__(self, terms, grading):
        self.terms = terms
        self.grading = grading

    @staticmethod
    def lift(x) -> dict:
        if isinstance(x, _Poly):
            return x.terms
        return {(): x} if x != 0 else {}

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in _Poly.lift(other).items():
            s = out.pop(mono, 0) + c
            if s != 0:
                out[mono] = s
        return _Poly(out, self.grading)

    __radd__ = __add__

    def __neg__(self):
        return _Poly({mono: -c for mono, c in self.terms.items()}, self.grading)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            if other == 0:
                return _Poly({}, self.grading)
            return _Poly({mono: c * other for mono, c in self.terms.items()},
                         self.grading)
        weight, bias, over = self.grading
        right = [(m2, c2, weight[m2]) for m2, c2 in other.terms.items()]
        out = {}
        for m1, c1 in self.terms.items():
            w1 = weight[m1] + bias
            for m2, c2, w2 in right:
                if (w1 + w2) & over:
                    continue
                mono = tuple(sorted(m1 + m2))
                s = out.pop(mono, 0) + c1 * c2
                if s != 0:
                    out[mono] = s
        return _Poly(out, self.grading)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = _Poly({(): 1}, self.grading)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == _Poly.lift(other)

    __hash__ = None


class _Weights(dict):
    """{monomial: its packed weight}, each computed on first sight as the
    sum of its variables' packed weights, variables[i]."""

    __slots__ = ("variables",)

    def __init__(self, variables):
        self.variables = variables

    def __missing__(self, mono):
        w = self[mono] = sum(map(self.variables.__getitem__, mono))
        return w


def _grading(weights, bound: int):
    """(weight, bias, over) for the per-index weights of each variable.

    weight maps a monomial to the sum of its variables' weights, packed into
    one int with a field of width bits per index. A product's field holds
    two weights of at most bound plus bias = 2^(width-1) - 1 - bound, so its
    top bit, the field's bit in over, is set exactly when the product weighs
    more than bound there, and the field never carries into the next. With
    no indices nothing is dropped, and an empty Counter reads 0 for every
    monomial without keeping it, so a full expansion holds no cache.
    """
    indices = len(weights[0])
    if not indices:
        return Counter(), 0, 0
    if any(not 0 <= w <= bound for ws in weights for w in ws):
        raise ValueError(f"index weights must lie in 0..{bound}")
    width = bound.bit_length() + 1
    half = 1 << (width - 1)

    def packed(ws):
        return sum(w << (width * t) for t, w in enumerate(ws))

    return (_Weights(tuple(map(packed, weights))),
            packed([half - 1 - bound] * indices), packed([half] * indices))


def _semi_invariant(func, dim: int, weights, bound: int) -> bool:
    """Whether func(d . x) = (prod_t d_t)^bound func(x), where d . x scales
    coordinate c by prod_t d_t^weights[c][t], at one random point x and
    torus element d with 32-bit entries.

    A form for which this holds identically has every monomial weighing
    exactly bound at every index. The point is drawn, not structured: a
    structured point such as (1, 2, ..., dim) can hide a part of the
    form that weighs otherwise.
    """
    bits = stream_rng(0, "index-weights").getrandbits
    x = tuple(bits(32) for _ in range(dim))
    d = tuple(bits(32) | 1 for _ in range(len(weights[0])))
    image = tuple(v * prod(map(pow, d, ws)) for v, ws in zip(x, weights))
    return func(image) == prod(d) ** bound * func(x)


class PolarizedForm:
    """A homogeneous form of known degree, compiled to its monomial table.

    With weights (per coordinate, one weight per index) and a bound, the
    table is expanded modulo the monomials that weigh more than the bound
    at some index, when _semi_invariant finds that every monomial of func
    weighs exactly the bound everywhere; otherwise, or without weights, it
    is expanded in full.
    """

    def __init__(self, degree: int, dim: int, func, name: str = "form",
                 weights=None, bound: int | None = None):
        self.degree = degree
        self.dim = dim
        self.func = func
        self.name = name
        if weights is not None and (len(weights) != dim or bound is None):
            raise ArityError(f"{name}: expected {dim} index weights and a "
                             f"bound, got {len(weights)} and {bound}")
        if weights is None or not _semi_invariant(func, dim, weights, bound):
            weights, bound = [()] * dim, 0
        grading = _grading(weights, bound)
        table = sorted(_Poly.lift(func(tuple(_Poly({(i,): 1}, grading)
                                             for i in range(dim)))).items())
        if any(len(mono) != degree for mono, _ in table):
            raise ArityError(f"{name}: not homogeneous of degree {degree}")
        coeffs, self.denominator = clear_row_denominators(c for _, c in table)
        self.terms = tuple((mono, c) for (mono, _), c in zip(table, coeffs))

    def __call__(self, vec):
        return _contract(self, vec, [])

    def __repr__(self):
        return f"PolarizedForm({self.name}, degree={self.degree}, dim={self.dim})"


def _cleared(form: PolarizedForm, vec):
    """vec, checked to be a pair (numerators, denominator) of form.dim numerators."""
    nums = vec[0] if isinstance(vec, tuple) and len(vec) == 2 else None
    if not isinstance(nums, (tuple, list)) or len(nums) != form.dim:
        raise ArityError(f"{form.name}: expected a pair of {form.dim} "
                         f"numerators and a denominator, got {vec!r}")
    return vec


def _subset_steps(m: int):
    """The recurrence of _multilinear for m slots: for each nonempty subset
    S of slots, largest first, the pairs (slot column, S without the slot)."""
    return tuple((S, tuple((s + 1, S ^ (1 << s)) for s in range(m) if S >> s & 1))
                 for S in range((1 << m) - 1, 0, -1))


def _multilinear(factors, mono, steps):
    """[t_1 ... t_m] prod_{i in mono} (f_i[0] + sum_s t_s f_i[s]), f_i = factors[i].

    poly[S] holds the coefficient of prod_{s in S} t_s in the product so far;
    each position updates the subsets in place, largest first.
    """
    poly = [1] + [0] * len(steps)
    for i in mono:
        f = factors[i]
        b = f[0]
        for S, moves in steps:
            v = poly[S] * b
            for s, T in moves:
                v += poly[T] * f[s]
            poly[S] = v
        poly[0] *= b
    return poly[-1]


def _contract(form: PolarizedForm, base, rest, gradient: bool = False):
    """F~(B^(q-m), r_1..r_m), or with gradient=True the covector slot (nums,
    den) of x -> F~(B^(q-1-m), r_1..r_m, x), in one pass over the table."""
    q = form.degree
    m = len(rest)
    free = q - m - gradient  # how often the base fills a slot
    base, den = _cleared(form, base)
    den = form.denominator * den ** free
    columns = [base]
    for r in rest:
        r, d = _cleared(form, r)
        den *= d
        columns.append(r)
    num = factorial(free)
    den *= factorial(q)

    if not (m or gradient):
        # F(B) itself: with no slots the coefficient is the product of the base
        total = 0
        for mono, c in form.terms:
            for i in mono:
                c *= base[i]
            total += c
        return value(total * num, den)
    factors = tuple(zip(*columns))  # factors[i] = (B_i, r_1[i], ..., r_m[i])
    steps = _subset_steps(m)
    # the slots fill m + gradient positions, so a monomial with more
    # positions where B is 0 contributes nothing; the count is taken only
    # when B has a zero coordinate
    base_zero = [b == 0 for b in base]
    zeros = base_zero.__getitem__ if any(base_zero) else None
    if not gradient:
        total = 0
        for mono, c in form.terms:
            if zeros is None or sum(map(zeros, mono)) <= m:
                total += c * _multilinear(factors, mono, steps)
        return value(total * num, den)
    out = [0] * form.dim
    for mono, c in form.terms:
        n = 0 if zeros is None else sum(map(zeros, mono))
        if n > m + 1:
            continue
        for p, i in enumerate(mono):
            if n > m and n - base_zero[i] > m:
                continue
            others = mono[:p] + mono[p + 1:]
            if m:
                out[i] += c * _multilinear(factors, others, steps)
            else:
                v = c
                for j in others:
                    v *= base[j]
                out[i] += v
    return over(tuple([t * num for t in out]), den)


def pair_matrix(form: PolarizedForm, base):
    """(rows, den) with rows[i][j] / den = F~(B^(q-2), e_i, e_j).

    One pass over the table: each pair of positions of a monomial takes e_i
    and e_j in both orders, times the base at the other positions, so a
    monomial with more than two positions where B is 0 contributes nothing
    (at the unit, most of them). The rows come in the number format
    linalg.over decides: an int base gives int rows over one denominator in
    lowest terms, a float base floats over 1.
    """
    q, dim = form.degree, form.dim
    base, d = _cleared(form, base)
    rows = [[0] * dim for _ in range(dim)]
    pairs = [(p, p2, [o for o in range(q) if o != p and o != p2])
             for p, p2 in combinations(range(q), 2)]
    base_zero = [b == 0 for b in base]
    zeros = base_zero.__getitem__ if any(base_zero) else None
    for mono, c in form.terms:
        if zeros is not None and sum(map(zeros, mono)) > 2:
            continue
        vals = [base[i] for i in mono]
        for p, p2, others in pairs:
            v = c
            for o in others:
                v *= vals[o]
            if v:
                i, j = mono[p], mono[p2]
                rows[i][j] += v
                rows[j][i] += v
    flat, den = over(tuple([v for row in rows for v in row]),
                     form.denominator * d ** (q - 2) * q * (q - 1))
    return [flat[i:i + dim] for i in range(0, dim * dim, dim)], den


def full_polarize(form: PolarizedForm, args):
    """F~(args_1, ..., args_q): the partial polarization with no base."""
    return partial_polarize(form, ((0,) * form.dim, 1), 0, args)


def partial_polarize(form: PolarizedForm, base, mult: int, rest):
    """F~(base repeated mult times, rest_1, ..., rest_m)."""
    rest = list(rest)
    if mult < 0 or mult + len(rest) != form.degree:
        raise ArityError(f"multiplicity {mult} plus {len(rest)} slots must "
                         f"equal degree {form.degree}")
    return _contract(form, base, rest)


def covector_slot(form: PolarizedForm, fixed):
    """The functional x -> F~(fixed..., x) on the canonical basis.

    Materialized as (nums, den), nums / den the coordinate covector of
    length form.dim, in the format linalg.over decides: the first fixed
    argument is the base, and the other pairs that differ from it are the
    slots.
    """
    q = form.degree
    if len(fixed) != q - 1:
        raise ArityError(f"covector slot of a degree-{q} form needs {q - 1} "
                         f"fixed arguments, got {len(fixed)}")
    base = fixed[0]
    return _contract(form, base, [f for f in fixed if f != base], gradient=True)
