"""Polarization of homogeneous forms by contraction of their monomial table.

A PolarizedForm is built from a function that evaluates a degree-q form F
on a coordinate vector. The function runs once, on symbolic coordinates (a
small sparse polynomial type), which expands F into its monomial table

    F(x) = 1/denominator * sum_{(i_1 <= ... <= i_q, c)} c x_{i_1} ... x_{i_q},

with integer coefficients c when F is rational.

Given a weight per index for each coordinate, as norm_form gives them, the
expansion runs modulo the monomials that weigh more than the bound the
weights imply (_bound) at some index: each product drops them as it forms.
That is exact when every monomial of F weighs exactly the bound at every
index. PolarizedForm checks this first, comparing F at a random integer
point with F at the point's image under the torus, and where they disagree
it expands F in full.

The symmetric multilinear polarization F~ with F~(x, ..., x) = F(x) is a sum
over the table: for slots r_1..r_m and a base B in the q - m positions
they leave open,

    F~(B^(q-m), r_1, ..., r_m) = (q-m)!/q! * 1/denominator
        * sum c [t_1 ... t_m] prod_p (B_{i_p} + sum_s t_s r_s[i_p]),

where [t_1 ... t_m] takes the coefficient of t_1 ... t_m, one recurrence
over the positions p of each monomial. The covector x -> F~(B^(q-1-m),
r_1..r_m, x) collects the same coefficient with one position dropped at a
time, at that position's index, scaled by (q-1-m)!/q!; the pair matrix
F~(B^(q-2), e_i, e_j) collects the base product over the other positions
for every pair of positions. Each contraction reads the table once.

The passes are generated code, one function per pass shape: the degree q,
the slot count m and the positions left open (0 for the value, 1 for the
covector, 2 for the pair matrix). Its loop body is the work of one
monomial written out, with each position's entries bound to locals and the
recurrence unrolled over the subsets of the slots, in the order the
formulas above give, so floats round the same on every route. The table
stays data: each function takes it as an argument, so one compile serves
every table of that shape and a table edited after it is read as it stands.

Every vector argument is a pair (numerators, denominator), ``a.cleared`` for
an element and (coords, 1) for an integer draw; a bare tuple of values
raises ArityError. The contraction runs on the numerators and the result is
divided once, through linalg.over, which decides the number format: int
numerators give exact values, floats over 1 give floats. Covectors and pair
matrices leave as numerators over one denominator; only a scalar becomes a value.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from .linalg import clear_row_denominators, over, value
from .rng import stream_rng


class ArityError(ValueError):
    pass


class _Poly:
    """Sparse polynomial {sorted variable-index tuple: coefficient}, reduced
    modulo the monomials that weigh more than a bound at some index.

    It has just the arithmetic a form's evaluator uses (+, -, * and **), so
    running the evaluator on _Poly coordinates expands the form. ``grading``
    is _grading's (weight, bias, over), shared by every polynomial of one
    expansion: a product of two monomials is dropped when its weight,
    biased, sets a bit of ``over``. Weights are never negative, so the
    dropped monomials span an ideal and each product is reduced modulo it;
    with no indices, every weight is 0 and nothing is dropped.
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


def _bound(form, weights) -> int:
    """q s / n: the weight a degree-q monomial carries at each of n indices
    when it carries the same at all, s being the weight total every
    coordinate shares. Raises ArityError when the weights do not fit."""
    lengths, totals = {len(ws) for ws in weights}, {sum(ws) for ws in weights}
    if len(weights) != form.dim or len(lengths) != 1 or len(totals) != 1:
        raise ArityError(f"{form.name}: expected {form.dim} index weights of one "
                         f"length and one total, got {len(weights)} of lengths "
                         f"{sorted(lengths)} and totals {sorted(totals)}")
    (n,), (s,) = lengths, totals
    bound, rest = divmod(form.degree * s, n or 1)
    if rest:
        raise ArityError(f"{form.name}: degree {form.degree} times the weight "
                         f"total {s} is not a multiple of {n} indices")
    return bound


class PolarizedForm:
    """A homogeneous form of known degree, compiled to its monomial table:
    with weights (per coordinate, one weight per index), modulo the
    monomials that weigh more than _bound at some index where
    _semi_invariant allows it, and in full otherwise."""

    def __init__(self, degree: int, dim: int, func, name: str = "form",
                 weights=None):
        self.degree = degree
        self.dim = dim
        self.func = func
        self.name = name
        bound = 0 if weights is None else _bound(self, weights)
        # a bound of 0 drops no monomial: the table is expanded in full
        if not bound or not _semi_invariant(func, dim, weights, bound):
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


def _recurrence(positions, m: int) -> list:
    """The lines that take [t_1 ... t_m] prod_p (b_p + sum_s t_s r_s_p) over
    positions into p{2^m - 1}.

    p{S} holds the coefficient of prod_{s in S} t_s in the product so far;
    each position updates the subsets in place, largest first, and p0 last.
    """
    full = (1 << m) - 1
    lines = ["p0 = 1", " = ".join(f"p{S}" for S in range(1, full + 1)) + " = 0"]
    for p in positions:
        lines += [f"p{S} = p{S} * b{p}" + "".join(
                      f" + p{S ^ 1 << s} * r{s}_{p}" for s in range(m) if S >> s & 1)
                  for S in range(full, 0, -1)]
        lines.append(f"p0 *= b{p}")
    return lines


def _product(positions, entry: str = "b{}") -> str:
    """c times the base at positions, left to right; entry names the base
    at a position."""
    return "c" + "".join(" * " + entry.format(p) for p in positions)


@lru_cache(maxsize=None)
def _pass(q: int, m: int, free: int):
    """One pass over a table of degree-q monomials with m slots and free
    positions left open, compiled once per shape: the function
    (terms, base, slots, holes, out) -> F's sum with free = 0, or the
    covector (free = 1) or pair rows (free = 2) added into out.

    Per monomial the code binds each position's index, base entry and slot
    entries to locals and writes out the recurrence of _recurrence. The slots
    fill m + free positions, so where the base has zeros (holes), a monomial
    with more positions where it is 0 contributes nothing and is skipped;
    a covector then also skips each dropped position whose base is not 0
    when the others hold more than m zeros. The table is an argument, so a
    table edited after compiling is read as it stands.
    """
    pos = range(q)
    limit = m + free
    body = ["".join(f"i{p}, " for p in pos) + "= mono"]
    if not (m or free):
        # each base entry is read once: F(B) itself
        return _compiled(m, body + [f"total += {_product(pos, 'base[i{}]')}"])
    body += [f"b{p} = base[i{p}]" for p in pos]
    count = " + ".join(f"(not b{p})" for p in pos)
    if free == 1:
        body += ["n = 0", "if holes:", f"    n = {count}",
                 f"    if n > {limit}:", "        continue"]
    elif limit < q:
        body += [f"if holes and {count} > {limit}:", "    continue"]
    body += [f"r{s}_{p} = s{s}[i{p}]" for s in range(m) for p in pos]
    if free == 0:
        body += _recurrence(pos, m) + [f"total += c * p{(1 << m) - 1}"]
    elif free == 1:
        for p in pos:
            others = [o for o in pos if o != p]
            if m:
                drop = _recurrence(others, m) + [f"out[i{p}] += c * p{(1 << m) - 1}"]
            else:
                drop = [f"out[i{p}] += {_product(others)}"]
            body += [f"if n <= {m} or not b{p}:"] + ["    " + line for line in drop]
    else:
        body += [f"row{p} = out[i{p}]" for p in pos]
        for p, p2 in combinations(pos, 2):
            body += [f"v = {_product(o for o in pos if o not in (p, p2))}",
                     "if v:", f"    row{p}[i{p2}] += v", f"    row{p2}[i{p}] += v"]
    return _compiled(m, body)


def _compiled(m: int, body):
    """The function (terms, base, slots, holes, out) that runs body on each
    (mono, c) of terms, with the m slots bound to s0, s1, ..., and returns
    total."""
    lines = ["def contract(terms, base, slots, holes, out):"]
    if m:
        lines.append("    " + "".join(f"s{s}, " for s in range(m)) + "= slots")
    lines += ["    total = 0", "    for mono, c in terms:"]
    lines += ["        " + line for line in body]
    lines.append("    return total")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["contract"]


def _contract(form: PolarizedForm, base, rest, gradient: bool = False):
    """F~(B^(q-m), r_1..r_m), or with gradient=True the covector slot (nums,
    den) of x -> F~(B^(q-1-m), r_1..r_m, x), in one pass over the table."""
    q = form.degree
    free = q - len(rest) - gradient  # how often the base fills a slot
    base, den = _cleared(form, base)
    rest = [_cleared(form, r) for r in rest]
    den = form.denominator * den ** free * prod(d for _, d in rest) * factorial(q)
    num = factorial(free)
    out = [0] * form.dim
    total = _pass(q, len(rest), int(gradient))(
        form.terms, base, [r for r, _ in rest], 0 in base, out)
    if not gradient:
        return value(total * num, den)
    return over(tuple([t * num for t in out]), den)


def pair_matrix(form: PolarizedForm, base):
    """(rows, den) with rows[i][j] / den = F~(B^(q-2), e_i, e_j).

    One pass over the table: each pair of positions of a monomial takes e_i
    and e_j in both orders, times the base at the other positions, so a
    monomial with more than two positions where B is 0 contributes nothing
    (at the unit, most of them). The rows come in linalg.over's number
    format: int rows over one denominator, or floats over 1.
    """
    q, dim = form.degree, form.dim
    if q < 2:
        raise ArityError(f"the pair matrix of a degree-{q} form needs degree 2 or more")
    base, d = _cleared(form, base)
    rows = [[0] * dim for _ in range(dim)]
    _pass(q, 0, 2)(form.terms, base, (), 0 in base, rows)
    flat, den = over(tuple([v for row in rows for v in row]),
                     form.denominator * d ** (q - 2) * q * (q - 1))
    return [flat[i:i + dim] for i in range(0, dim * dim, dim)], den


def full_polarize(form: PolarizedForm, args):
    """F~(args_1, ..., args_q): the slots fill every position, so the zero
    base fills none."""
    args = list(args)
    if len(args) != form.degree:
        raise ArityError(f"{len(args)} arguments for degree {form.degree}")
    return partial_polarize(form, ((0,) * form.dim, 1), args)


def partial_polarize(form: PolarizedForm, base, rest):
    """F~(base, ..., base, rest_1, ..., rest_m), the base filling the
    degree - m positions that rest leaves open."""
    rest = list(rest)
    if len(rest) > form.degree:
        raise ArityError(f"{len(rest)} slots exceed degree {form.degree}")
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
    # a linear form takes no fixed argument: its covector is its coefficients
    base = fixed[0] if fixed else ((0,) * form.dim, 1)
    return _contract(form, base, [f for f in fixed if f != base], gradient=True)
