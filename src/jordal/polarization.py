"""Polarization of homogeneous forms by contraction of their monomial table.

A PolarizedForm is built from a function that evaluates a degree-q form F
on a coordinate vector. The function runs once, on symbolic coordinates (a
small sparse polynomial type), which expands F into its monomial table

    F(x) = 1/denominator * sum_{(i_1 <= ... <= i_q, c)} c x_{i_1} ... x_{i_q},

with integer coefficients c when F is rational. The symmetric multilinear
polarization F~ with F~(x, ..., x) = F(x) is read off the table with
directional derivatives D_r = sum_i r_i d/dx_i, applied term by term: for a
base B repeated q - m times and slots r_1..r_m,

    F~(B^(q-m), r_1, ..., r_m) = (q-m)!/q! (D_{r_1} ... D_{r_m} F)(B),

and the covector x -> F~(B^(q-1-m), r_1, ..., r_m, x) is (q-1-m)!/q! times
the gradient of D_{r_1} ... D_{r_m} F at B. Every argument is first cleared
to int numerators over one denominator, so the contraction runs on ints and
the result is divided once; float vectors pass through unchanged, so float
mode computes in floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .linalg import EXACT_TYPES, clear_row_denominators


class ArityError(ValueError):
    pass


class _Poly:
    """Sparse polynomial {sorted variable-index tuple: coefficient}.

    It has just the arithmetic a form's evaluator uses (+, -, *, ** and
    comparison with 0), so running the evaluator on _Poly coordinates
    expands the form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

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
        return _Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _Poly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            if other == 0:
                return _Poly({})
            return _Poly({mono: c * other for mono, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                s = out.pop(mono, 0) + c1 * c2
                if s != 0:
                    out[mono] = s
        return _Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = _Poly({(): 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == _Poly.lift(other)

    __hash__ = None


class PolarizedForm:
    """A homogeneous form of known degree, compiled to its monomial table."""

    def __init__(self, degree: int, dim: int, func, name: str = "form"):
        self.degree = degree
        self.dim = dim
        self.func = func
        self.name = name
        table = sorted(_Poly.lift(func(tuple(_Poly({(i,): 1})
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
    """(int numerators, denominator, exact?) of one argument vector."""
    vec = tuple(vec)
    if len(vec) != form.dim:
        raise ArityError(f"{form.name}: expected {form.dim} coordinates, "
                         f"got {len(vec)}")
    nums, d = clear_row_denominators(vec)
    return nums, d, EXACT_TYPES.issuperset(map(type, vec))


def _contract(form: PolarizedForm, base, rest, gradient: bool = False):
    """F~(B^(q-m), r_1..r_m), or with gradient=True the covector slot
    x -> F~(B^(q-1-m), r_1..r_m, x), over the monomial table."""
    q = form.degree
    m = len(rest)
    free = q - m - gradient  # how often the base fills a slot
    base, den, exact = _cleared(form, base)
    den = form.denominator * den ** free
    terms = form.terms
    for r in rest:
        r, d, r_exact = _cleared(form, r)
        den *= d
        exact = exact and r_exact
        derived = {}
        for mono, c in terms:
            for p, i in enumerate(mono):
                ri = r[i]
                if ri and (p == 0 or mono[p - 1] != i):
                    # every position holding i gives the same monomial
                    key = mono[:p] + mono[p + 1:]
                    derived[key] = derived.get(key, 0) + c * mono.count(i) * ri
        terms = derived.items()
    zero = 0 if exact else 0.0
    num = factorial(free)
    den *= factorial(q)

    def divide(total):
        return Fraction(total * num, den) if exact else total * num / den

    if not gradient:
        total = zero
        for mono, c in terms:
            for i in mono:
                c *= base[i]
            total += c
        return divide(total)
    out = [zero] * form.dim
    for mono, c in terms:
        for p, i in enumerate(mono):
            if p == 0 or mono[p - 1] != i:
                v = c * mono.count(i)
                for j in mono[:p] + mono[p + 1:]:
                    v *= base[j]
                out[i] += v
    return tuple(divide(v) for v in out)


def full_polarize(form: PolarizedForm, args):
    """F~(args_1, ..., args_q): the partial polarization with no base."""
    return partial_polarize(form, (0,) * form.dim, 0, args)


def partial_polarize(form: PolarizedForm, base, mult: int, rest):
    """F~(base repeated mult times, rest_1, ..., rest_m)."""
    rest = list(rest)
    if mult < 0 or mult + len(rest) != form.degree:
        raise ArityError(f"multiplicity {mult} plus {len(rest)} slots must "
                         f"equal degree {form.degree}")
    return _contract(form, base, rest)


def covector_slot(form: PolarizedForm, fixed):
    """The functional x -> F~(fixed..., x) on the canonical basis.

    Materialized as a coordinate covector of length form.dim: the gradient
    at the first fixed argument of the derivatives along the others that
    differ from it.
    """
    q = form.degree
    fixed = [tuple(f) for f in fixed]
    if len(fixed) != q - 1:
        raise ArityError(f"covector slot of a degree-{q} form needs {q - 1} "
                         f"fixed arguments, got {len(fixed)}")
    base = fixed[0]
    return _contract(form, base, [f for f in fixed if f != base], gradient=True)
