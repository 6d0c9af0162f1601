"""Recovering the Jordan product from the generic norm form alone.

Everything here uses only Q (a degree-q homogeneous form, q = k+1), its
polarizations, and the distinguished unit element I with Q(I) = 1:

  - gradient map      G(M) = Q(M,...,M,.) / Q(M), a covector;
  - tangent operator  tau_M = -D_M G, with the closed polarized formula
        tau_M(B)(c) = -(q-1) Q(M,..,M,B,c)/Q(M)
                      + q Q(M,..,M,B) Q(M,..,M,c)/Q(M)^2;
  - inner product     <A,B> = tau_I(A)(B), the Gram pairing;
  - sharp             the inverse of V -> V*, A -> <A,.>;
  - structural map    H_A = tau_I^{-1} tau_A;
  - the closed product formula
        A*B = k(k-1)/2 sharp(Q(I,..,I,A,B,.))
              + (k+1)/2 [Q(I,..,I,A) B + Q(I,..,I,B) A]
              - k(k+1)/2 Q(I,..,I,A,B) I;
  - an independent derivative route  A*B = -1/2 d/dt H_{I+tA}(B) at t = 0,
    whose t-derivatives are polarizations of Q by the product rule.

Q enters as its monomial table (polarization.PolarizedForm), so every
polarization above is a contraction of that table. A NormFrame holds the
per-spec shared data (the table, unit covector, the Gram matrix of <.,.>
and its exact inverse), computed once and shared read-only.
Vectors stay (numerators, denominator) pairs: elements enter polarization as
``a.cleared``, and covectors go from covector_slot through LinearOperator.apply,
JordanElement.dot and linalg.combine to jordan.reduced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .jordan import JordanSpec, JordanElement, identity, norm_form, reduced
from .linalg import (LinearOperator, clear_row_denominators, combine, exact_det,
                     exact_inverse)
from .polarization import PolarizedForm, covector_slot, pair_matrix, partial_polarize
from .rng import sample_coords


class SingularPoint(ValueError):
    """Raised when an operation needs Q(M) != 0 but Q(M) = 0."""


class NormFrame:
    """Shared read-only context for one algebra: norm form, unit, Gram data."""

    def __init__(self, spec: JordanSpec):
        self.spec = spec
        self.form: PolarizedForm = norm_form(spec)
        self.q = spec.degree
        self.unit = identity(spec)
        self.unit_covector = covector_slot(
            self.form, [self.unit.cleared] * (self.q - 1))
        self._gram = None
        self._gram_inv = None
        self._det_gram = None

    # Gram data is built lazily; many light uses never need it.
    def _build_gram(self):
        if self._gram is not None:
            return
        # <A, B> = tau_I(A)(B)
        gram = tau(self, self.unit)
        rows, den = gram.numerators, gram.denominator
        inv, inv_den = exact_inverse(rows)
        self._gram_inv = LinearOperator(
            tuple(tuple(den * v for v in row) for row in inv), inv_den, "V*", "V")
        self._det_gram = exact_det(rows) / den ** len(rows)
        self._gram = gram

    @property
    def gram(self) -> LinearOperator:
        self._build_gram()
        return self._gram

    @property
    def gram_inv(self) -> LinearOperator:
        self._build_gram()
        return self._gram_inv

    @property
    def det_gram(self):
        self._build_gram()
        return self._det_gram

    def norm(self, a: JordanElement):
        return self.form(a.cleared)

    def element(self, coords) -> JordanElement:
        return JordanElement(self.spec, coords)

    def random_invertible(self, rng) -> JordanElement:
        """Random integer element with Q != 0 (rejection sampling); running out
        of draws raises a plain ValueError, which fails the trial."""
        for _ in range(200):
            coords = sample_coords(rng, self.spec.dim)
            if self.form((coords, 1)) != 0:
                return self.element(coords)
        raise ValueError("no element with Q != 0 in 200 draws")


@lru_cache(maxsize=None)
def frame(spec: JordanSpec) -> NormFrame:
    return NormFrame(spec)


def _pair_matrix(fr: NormFrame, m):
    """(rows, den): the symmetric matrix W[i][j] = Q(M,..,M,e_i,e_j) over the
    canonical basis is rows / den, from one pass over Q's table; m is M's pair."""
    return pair_matrix(fr.form, m)


def unit_pairing(fr: NormFrame, a: JordanElement):
    """Q(I,...,I,A): the memoized unit covector dotted with A's numerators."""
    return a.dot(*fr.unit_covector)


def sharp(fr: NormFrame, covector) -> JordanElement:
    """The element S with <S, x> = covector(x) for all x; covector = (nums, den)."""
    return reduced(fr.spec, *fr.gram_inv.apply(*covector))


def inner(fr: NormFrame, a: JordanElement, b: JordanElement):
    """<A,B> = tau_I(A)(B), the Gram pairing: the Gram applied to A's
    numerators, then one dot against B's, divided once."""
    return b.dot(*fr.gram.apply(*a.cleared))


def tau(fr: NormFrame, m: JordanElement) -> LinearOperator:
    """tau_M = -D_M G as a V -> V* operator (rows index the covector):
    (q g g^T - (q-1) Q(M) W) / Q(M)^2 with g = Q(M,..,M,.) and W the pair
    matrix Q(M,..,M,.,.). Exact inputs give int rows over an int
    denominator, float ones float rows over Q(M)^2; LinearOperator brings
    either to the number format. Every other tau quantity reads this one."""
    qm = fr.norm(m)
    if qm == 0:
        raise SingularPoint("tau undefined where Q vanishes")
    q = fr.q
    g, dg = covector_slot(fr.form, [m.cleared] * (q - 1))
    w, dw = _pair_matrix(fr, m.cleared)
    (qn,), qd = clear_row_denominators((qm,))
    a = q * dw * qd ** 2
    b = (q - 1) * dg * dg * qn * qd
    rows = tuple(tuple(a * gi * gj - b * wij for gj, wij in zip(g, row))
                 for gi, row in zip(g, w))
    return LinearOperator(rows, dg * dg * dw * qn ** 2, "V", "V*")


def tau_covector(fr: NormFrame, m: JordanElement, x: JordanElement):
    """tau_M(x) as a covector (nums, den): the operator tau_M applied to x."""
    return tau(fr, m).apply(*x.cleared)


def structural_map(fr: NormFrame, a: JordanElement) -> LinearOperator:
    """H_A = tau_I^{-1} tau_A, a norm similarity: Q(H_A B) = Q(A)^-2 Q(B)."""
    return fr.gram_inv.compose(tau(fr, a))


def reconstructed_product(fr: NormFrame, a: JordanElement,
                          b: JordanElement) -> JordanElement:
    """A*B rebuilt from polarizations of Q (no matrix multiplication), as
    one combination of the closed formula's four terms."""
    k, q, unit = fr.q - 1, fr.q, fr.unit.cleared
    cross = partial_polarize(fr.form, unit, q - 2, [a.cleared, b.cleared])
    sharped = sharp(fr, covector_slot(fr.form,
                                      [unit] * (q - 3) + [a.cleared, b.cleared]))
    return reduced(fr.spec, *combine(
        (k * (k - 1) // 2, Fraction(k + 1, 2) * unit_pairing(fr, a),
         Fraction(k + 1, 2) * unit_pairing(fr, b), -(k * (k + 1) // 2) * cross),
        (sharped.cleared, b.cleared, a.cleared, fr.unit.cleared)))


def _structural_line_derivative(fr: NormFrame, a: JordanElement,
                                b: JordanElement):
    """d/dt [tau_I^{-1} tau_{I+tA}(B)] at t = 0, by the product rule.

    With M = I + tA, the four polynomial pieces in t are
        c1(t) = Q(M,..,M,B,.)  (degree q-2, covector)
        c2(t) = Q(M,..,M,B)    (degree q-1)
        c3(t) = Q(M,..,M,.)    (degree q-1, covector)
        c4(t) = Q(M)           (degree q, c4(0) = Q(I) = 1),
    and each t-derivative at 0 trades one I for A: c1' = (q-2) Q(I,..,I,A,B,.),
    c2' = (q-1) Q(I,..,I,A,B), c3' = (q-1) Q(I,..,I,A,.), c4' = q Q(I,..,I,A).
    phi = -(q-1) c1/c4 + q c2 c3/c4^2, whose derivative combines the covectors.
    """
    q, unit = fr.q, fr.unit.cleared
    a_pair, b_pair = a.cleared, b.cleared
    c2_0 = unit_pairing(fr, b)
    c2_d = (q - 1) * partial_polarize(fr.form, unit, q - 2, [a_pair, b_pair])
    c4_d = q * unit_pairing(fr, a)
    phi_d = combine(
        ((q - 1) * c4_d, -(q - 1) * (q - 2),
         q * c2_d - 2 * q * c2_0 * c4_d, q * (q - 1) * c2_0),
        (covector_slot(fr.form, [unit] * (q - 2) + [b_pair]),
         covector_slot(fr.form, [unit] * (q - 3) + [a_pair, b_pair]),
         fr.unit_covector,
         covector_slot(fr.form, [unit] * (q - 2) + [a_pair])))
    return sharp(fr, phi_d)


def derivative_product_oracle(fr: NormFrame, a: JordanElement,
                              b: JordanElement) -> JordanElement:
    """A*B = -1/2 d/dt H_{I+tA}(B) at t = 0 (independent derivative route)."""
    return _structural_line_derivative(fr, a, b).scale(Fraction(-1, 2))


def orbit_map_derivative(fr: NormFrame, a: JordanElement) -> JordanElement:
    """d/dt [tau_I^{-1} tau_{I+tA}(I)] at t = 0; the orbit lemma says -2A."""
    return _structural_line_derivative(fr, a, fr.unit)
