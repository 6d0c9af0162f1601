"""Recovering the Jordan product from the generic norm form alone.

Everything here uses only Q (a degree-q homogeneous form, q = k+1), its
polarizations, and the distinguished unit element I with Q(I) = 1:

  - gradient map      G(M) = Q(M,...,M,.) / Q(M), a covector;
  - tangent operator  tau_M = -D_M G, with the closed polarized formula
        tau_M(B)(c) = -(q-1) Q(M,..,M,B,c)/Q(M)
                      + q Q(M,..,M,B) Q(M,..,M,c)/Q(M)^2;
  - inner product     <A,B> = tau_I(A)(B)
                    = q Q(I,..,I,A) Q(I,..,I,B) - (q-1) Q(I,..,I,A,B);
  - sharp             the inverse of V -> V*, A -> <A,.>;
  - structural map    H_A = tau_I^{-1} tau_A;
  - the closed product formula
        A*B = k(k-1)/2 sharp(Q(I,..,I,A,B,.))
              + (k+1)/2 [Q(I,..,I,A) B + Q(I,..,I,B) A]
              - k(k+1)/2 Q(I,..,I,A,B) I;
  - an independent derivative route  A*B = -1/2 d/dt H_{I+tA}(B) at t = 0,
    evaluated by exact polynomial interpolation in t.

A NormFrame caches the per-spec shared data (unit covector, the Gram matrix
of <.,.> and its exact inverse), computed once and shared read-only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .jordan import JordanSpec, JordanElement, identity, basis_element, norm_form
from .linalg import LinearOperator, exact_det, exact_inverse
from .polarization import (PolarizedForm, covector_slot, derivative_at_zero_weights,
                           partial_polarize)


class SingularPoint(ValueError):
    """Raised when an operation needs Q(M) != 0 but Q(M) = 0."""


class NormFrame:
    """Shared read-only context for one algebra: norm form, unit, Gram data."""

    def __init__(self, spec: JordanSpec):
        self.spec = spec
        self.form: PolarizedForm = norm_form(spec)
        self.q = spec.degree
        self.unit = identity(spec)
        self.unit_coords = self.unit.coords()
        self.basis_coords = tuple(basis_element(spec, i).coords()
                                  for i in range(spec.dim))
        self.unit_covector = covector_slot(
            self.form, [self.unit_coords] * (self.q - 1))
        self._gram = None
        self._gram_inv = None
        self._det_gram = None

    # Gram data is built lazily; many light uses never need it.
    def _build_gram(self):
        if self._gram is not None:
            return
        q, dim = self.q, self.spec.dim
        s_mat = _pair_matrix(self, self.unit_coords)
        phi = self.unit_covector
        rows = tuple(tuple(q * phi[i] * phi[j] - (q - 1) * s_mat[i][j]
                           for j in range(dim)) for i in range(dim))
        self._gram_inv = LinearOperator(exact_inverse(rows), "V*", "V")
        self._det_gram = exact_det(rows)
        self._gram = LinearOperator(rows, "V", "V*")

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
        return self.form(a.coords())

    def element(self, coords) -> JordanElement:
        return JordanElement.from_coords(self.spec, coords)

    def random_invertible(self, rng, lo: int = -9, hi: int = 9,
                          max_tries: int = 200) -> JordanElement:
        """Random integer element with Q != 0 (rejection sampling)."""
        for _ in range(max_tries):
            coords = tuple(rng.randint(lo, hi) for _ in range(self.spec.dim))
            if self.form(coords) != 0:
                return self.element(coords)
        raise SingularPoint("could not sample an element with Q != 0")


@lru_cache(maxsize=None)
def frame(spec: JordanSpec) -> NormFrame:
    return NormFrame(spec)


def _pair_matrix(fr: NormFrame, m_coords):
    """Symmetric matrix W[i][j] = Q(M,..,M,e_i,e_j) over the canonical basis."""
    q, dim = fr.q, fr.spec.dim
    basis = fr.basis_coords
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            v = partial_polarize(fr.form, m_coords, q - 2, [basis[i], basis[j]])
            rows[i][j] = v
            rows[j][i] = v
    return rows


def unit_pairing(fr: NormFrame, a: JordanElement):
    """Q(I,...,I,A) via the memoized unit covector."""
    return sum(c * x for c, x in zip(fr.unit_covector, a.coords()))


def gradient_map(fr: NormFrame, m: JordanElement):
    """G(M) = Q(M,...,M,.)/Q(M) as a coordinate covector."""
    qm = fr.norm(m)
    if qm == 0:
        raise SingularPoint("gradient map undefined where Q vanishes")
    cov = covector_slot(fr.form, [m.coords()] * (fr.q - 1))
    return tuple(v / qm for v in cov)


def sharp(fr: NormFrame, covector) -> JordanElement:
    """The element S with <S, x> = covector(x) for all x."""
    return fr.element(fr.gram_inv.apply(covector))


def inner(fr: NormFrame, a: JordanElement, b: JordanElement):
    """<A,B> = q Q(I,..,I,A) Q(I,..,I,B) - (q-1) Q(I,..,I,A,B)."""
    q = fr.q
    cross = partial_polarize(fr.form, fr.unit_coords, q - 2,
                             [a.coords(), b.coords()])
    return q * unit_pairing(fr, a) * unit_pairing(fr, b) - (q - 1) * cross


def tau(fr: NormFrame, m: JordanElement) -> LinearOperator:
    """tau_M = -D_M G as a V -> V* operator (rows index the covector)."""
    qm = fr.norm(m)
    if qm == 0:
        raise SingularPoint("tau undefined where Q vanishes")
    q, dim = fr.q, fr.spec.dim
    m_coords = m.coords()
    g = covector_slot(fr.form, [m_coords] * (q - 1))
    w = _pair_matrix(fr, m_coords)
    inv = Fraction(1) / qm
    inv2 = inv * inv
    rows = tuple(tuple(q * g[i] * g[j] * inv2 - (q - 1) * w[i][j] * inv
                       for j in range(dim)) for i in range(dim))
    return LinearOperator(rows, "V", "V*")


def tau_covector(fr: NormFrame, m: JordanElement, x: JordanElement):
    """tau_M(x) as a covector, without assembling the full operator."""
    qm = fr.norm(m)
    if qm == 0:
        raise SingularPoint("tau undefined where Q vanishes")
    q = fr.q
    m_coords = m.coords()
    x_coords = x.coords()
    s = partial_polarize(fr.form, m_coords, q - 1, [x_coords])
    g = covector_slot(fr.form, [m_coords] * (q - 1))
    w = covector_slot(fr.form, [m_coords] * (q - 2) + [x_coords])
    inv = Fraction(1) / qm
    inv2 = inv * inv
    return tuple(q * s * g[c] * inv2 - (q - 1) * w[c] * inv
                 for c in range(fr.spec.dim))


def structural_map(fr: NormFrame, a: JordanElement) -> LinearOperator:
    """H_A = tau_I^{-1} tau_A, a norm similarity: Q(H_A B) = Q(A)^-2 Q(B)."""
    return fr.gram_inv.compose(tau(fr, a))


def tau_det_normalized(fr: NormFrame, m: JordanElement):
    """det(tau_I^{-1} tau_M); the norm identity says this is Q(M)^-(2+k*delta)."""
    return tau(fr, m).det() / fr.det_gram


def reconstructed_product(fr: NormFrame, a: JordanElement,
                          b: JordanElement) -> JordanElement:
    """A*B rebuilt from polarizations of Q (no matrix multiplication)."""
    k = fr.q - 1
    q = fr.q
    a_coords, b_coords = a.coords(), b.coords()
    pa = unit_pairing(fr, a)
    pb = unit_pairing(fr, b)
    cross = partial_polarize(fr.form, fr.unit_coords, q - 2, [a_coords, b_coords])
    cov = covector_slot(fr.form,
                        [fr.unit_coords] * (q - 3) + [a_coords, b_coords])
    sharped = sharp(fr, cov)
    out = sharped.scale(Fraction(k * (k - 1), 2))
    out = out + b.scale(Fraction(k + 1, 2) * pa) + a.scale(Fraction(k + 1, 2) * pb)
    out = out - fr.unit.scale(Fraction(k * (k + 1), 2) * cross)
    return out


def _structural_line_derivative(fr: NormFrame, a: JordanElement,
                                b: JordanElement):
    """d/dt [tau_I^{-1} tau_{I+tA}(B)] at t = 0, by exact interpolation.

    The four polynomial pieces in t are sampled at integer nodes and their
    values/derivatives at 0 recovered with exact Lagrange weights:
        c1(t) = Q(M,..,M,B,.)  (degree q-2, covector)
        c2(t) = Q(M,..,M,B)    (degree q-1)
        c3(t) = Q(M,..,M,.)    (degree q-1, covector)
        c4(t) = Q(M)           (degree q), with M = I + tA.
    """
    q, dim = fr.q, fr.spec.dim
    basis = fr.basis_coords
    a_coords = a.coords()
    b_coords = b.coords()
    unit = fr.unit_coords

    def m_at(t):
        return tuple(u + t * x for u, x in zip(unit, a_coords))

    nodes1 = tuple(range(q - 1))
    nodes2 = tuple(range(q))
    nodes4 = tuple(range(q + 1))
    d1 = derivative_at_zero_weights(nodes1)
    d2 = derivative_at_zero_weights(nodes2)
    d4 = derivative_at_zero_weights(nodes4)

    c1_samples = []
    for t in nodes1:
        mt = m_at(t)
        c1_samples.append(tuple(
            partial_polarize(fr.form, mt, q - 2, [b_coords, e]) for e in basis))
    c2_samples = []
    c3_samples = []
    for t in nodes2:
        mt = m_at(t)
        c2_samples.append(partial_polarize(fr.form, mt, q - 1, [b_coords]))
        c3_samples.append(covector_slot(fr.form, [mt] * (q - 1)))
    c4_samples = [fr.form(m_at(t)) for t in nodes4]

    c1_0 = c1_samples[0]
    c1_d = tuple(sum(w * s[c] for w, s in zip(d1, c1_samples)) for c in range(dim))
    c2_0 = c2_samples[0]
    c2_d = sum(w * s for w, s in zip(d2, c2_samples))
    c3_0 = c3_samples[0]
    c3_d = tuple(sum(w * s[c] for w, s in zip(d2, c3_samples)) for c in range(dim))
    c4_d = sum(w * s for w, s in zip(d4, c4_samples))

    phi_d = tuple(
        -(q - 1) * (c1_d[c] - c1_0[c] * c4_d)
        + q * (c2_d * c3_0[c] + c2_0 * c3_d[c] - 2 * c2_0 * c3_0[c] * c4_d)
        for c in range(dim))
    return fr.element(fr.gram_inv.apply(phi_d))


def derivative_product_oracle(fr: NormFrame, a: JordanElement,
                              b: JordanElement) -> JordanElement:
    """A*B = -1/2 d/dt H_{I+tA}(B) at t = 0 (independent derivative route)."""
    return _structural_line_derivative(fr, a, b).scale(Fraction(-1, 2))


def orbit_map_derivative(fr: NormFrame, a: JordanElement) -> JordanElement:
    """d/dt [tau_I^{-1} tau_{I+tA}(I)] at t = 0; the orbit lemma says -2A."""
    return _structural_line_derivative(fr, a, fr.unit)
