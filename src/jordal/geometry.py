"""Rank-one locus geometry: tangent frames, secant dimensions, duality.

The projectivized rank-one elements form the variety whose secant behavior
drives everything else in this package. All dimension counts here are exact
integer statements computed over the rationals by default; the functions
that take a ``backend`` compute in its arithmetic instead (see backend.py).
"""

from fractions import Fraction

from .backend import EXACT
from .composition import cd_conj, cd_mul, cd_norm
from .jordan import (JordanElement, JordanSpec, SpecMismatch, char_coeffs,
                     from_entries, mult_operator, reduced)
from .linalg import SingularMatrix, combine, exact_nullspace, exact_solve, mat_vec
from .polarization import PolarizedForm, covector_slot, full_polarize, partial_polarize
from .reconstruction import NormFrame, tau, tau_covector, unit_pairing
from .rng import COORD_HI, COORD_LO, sample_coords


class DegenerateFrame(ValueError):
    """A point without the scalar chart coordinate a tangent frame needs."""


class SingularConfiguration(ValueError):
    """A sampled configuration hit the norm hypersurface; resample."""


class DegenerateIntersection(ValueError):
    """Tangent intersection with the wrong dimension or degenerate pairing."""


class DualityViolation(ValueError):
    """A dual-point claim is false for the sampled configuration.

    Not a resampling signal: it reports a failed identity.
    """


def _outer_sym(spec: JordanSpec, u, v) -> JordanElement:
    """The Hermitian element u v^H + v u^H from two coordinate vectors."""
    def outer(i, j):
        a = cd_mul(u[i], cd_conj(v[j]), spec.delta)
        if i == j:  # a + conj(a)
            return 2 * a[0]
        b = cd_mul(v[i], cd_conj(u[j]), spec.delta)
        return tuple(x + y for x, y in zip(a, b))
    return from_entries(spec, outer)


class RankOnePoint:
    """A column vector v over the coordinate algebra and x = v v^H.

    One coordinate of v is required to be scalar so that the entries of v
    generate an associative subalgebra and x genuinely has rank one. The
    index of that coordinate is kept as the chart for tangent computations.
    """

    __slots__ = ("spec", "v", "element", "scalar_slot")

    def __init__(self, spec: JordanSpec, v):
        v = tuple(tuple(c) for c in v)
        if len(v) != spec.size:
            raise ValueError(f"need {spec.size} coordinates, got {len(v)}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "v", v)
        scalar = [i for i, vi in enumerate(v) if all(c == 0 for c in vi[1:])]
        # a chart needs a nonzero scalar coordinate; settle for any scalar one
        slot = next((i for i in scalar if v[i][0] != 0),
                    scalar[0] if scalar else None)
        object.__setattr__(self, "scalar_slot", slot)
        x = from_entries(spec, lambda i, j: cd_norm(v[i]) if i == j
                         else cd_mul(v[i], cd_conj(v[j]), spec.delta))
        if x.is_zero():
            raise ValueError("zero vector does not define a point")
        sigma = char_coeffs(x)
        if any(s != 0 for s in sigma[1:]):
            raise ValueError("v v^H is not rank one; coordinates of v "
                             "probably fail to associate")
        object.__setattr__(self, "element", x)

    def __setattr__(self, *_):
        raise AttributeError("RankOnePoint is immutable")

    def __repr__(self):
        return f"RankOnePoint({self.spec.k},{self.spec.delta})"


def sample_rank_one(spec: JordanSpec, rng) -> RankOnePoint:
    """Random rank-one point with small integer coordinates.

    A randomly rotated coordinate of v is forced to a nonzero scalar, which
    keeps the entries of v inside a two-generator (hence associative)
    subalgebra even over the octonions, so v v^H has rank one at every
    Jordan shape. One draw suffices: a rejection means a broken product, and
    RankOnePoint's ValueError fails the trial.
    """
    if not spec.is_jordan:
        raise SpecMismatch(
            "octonion columns of size >= 4 generically give v v^H of rank > 1, "
            "so rejection sampling would not terminate")
    size, delta = spec.size, spec.delta
    nonzero = [c for c in range(COORD_LO, COORD_HI + 1) if c != 0]
    v = [sample_coords(rng, delta) for _ in range(size)]
    # the slot is drawn before its value; reports depend on this order
    scalar_slot = rng.randrange(size)
    v[scalar_slot] = (rng.choice(nonzero),) + (0,) * (delta - 1)
    return RankOnePoint(spec, v)


def expected_tangent_rank(spec: JordanSpec) -> int:
    """Affine dimension of the rank-one cone: k*delta + 1."""
    return spec.k * spec.delta + 1


def tangent_frame(x: RankOnePoint):
    """Differentiate (v+tw)(v+tw)^H at t=0 over chart coordinate directions w.

    Returns the numerator rows of w v^H + v w^H, which span the tangent
    space at x (a row's scale does not change the span). Their rank is the
    tangent-rank check's claim, so it is not tested here: a trial draws
    again only on a degenerate draw, never on a wrong rank (see
    runner._run_one_trial).

    The directions keep the scalar slot of v scalar, so every perturbed
    vector still has pairwise associating entries and the curve stays inside
    the rank-one cone. That chart has exactly k*delta + 1 directions; outside
    it (nonassociative deltas) the naive derivative leaves the cone.
    """
    spec = x.spec
    size, delta = spec.size, spec.delta
    if x.scalar_slot is None:
        raise DegenerateFrame("point has no scalar chart coordinate")
    rows = []
    for p in range(size):
        for s in range(delta):
            if p == x.scalar_slot and s > 0:
                continue
            w = [(0,) * delta] * size
            w[p] = tuple(int(t == s) for t in range(delta))
            rows.append(list(_outer_sym(spec, w, x.v).cleared[0]))
    return rows


def terracini_expected(spec: JordanSpec, l: int) -> int:
    """(l+1)(k delta + 1) - delta l(l+1)/2, capped at the ambient dimension."""
    raw = (l + 1) * (spec.k * spec.delta + 1) - spec.delta * l * (l + 1) // 2
    return min(spec.dim, raw)


def terracini_dim(spec: JordanSpec, l: int, rng, backend=EXACT) -> int:
    """Measured rank of l+1 stacked tangent frames at random points."""
    if not 0 <= l <= spec.k:
        raise ValueError(f"l must lie in [0, {spec.k}]")
    rows = []
    for _ in range(l + 1):
        rows.extend(tangent_frame(sample_rank_one(spec, rng)))
    return backend.rank(rows)


def rank_one_double_slot(fr: NormFrame, x: RankOnePoint, fillers):
    """Q(x, x, C_3, ..., C_q); vanishes identically on the rank-one cone."""
    args = [x.element.cleared] * 2
    args.extend(c.cleared for c in fillers)
    return full_polarize(fr.form, args)


def dual_point(fr: NormFrame, x: RankOnePoint, a: JordanElement, backend=EXACT):
    """The hypersurface point x' cut out by x and A, with its tangent covector.

    Returns (x', tau_A(x)), the covector as (nums, den). x' = A - [Q(A) /
    (q Q(x,A,...,A))] x lands on {Q = 0} exactly, and tau_A(x), read from the
    operator tau_A, is the (projective) tangent hyperplane of the
    hypersurface there: it is a nonzero multiple of the gradient covector of
    Q at x', so the two have rank 1 together, and it kills the gradient's
    nullspace. Raises DualityViolation when any of these claims fails.
    """
    q = fr.q
    a = a.lifted(backend)
    xe = x.element.lifted(backend)
    qa = fr.norm(a)
    if backend.is_zero(qa, 0):
        raise SingularConfiguration("Q(A) = 0")
    pairing = partial_polarize(fr.form, a.cleared, q - 1, [xe.cleared])
    if backend.is_zero(pairing, 0):
        raise SingularConfiguration("Q(x, A, ..., A) = 0")
    # Fraction(qa) keeps exact division exact; a float quotient stays float
    xp = a - xe.scale(Fraction(qa) / (q * pairing))
    if not backend.is_zero(fr.norm(xp), (1 + xp.max_abs()) ** q):
        raise DualityViolation("Q(x') != 0")
    hyper_grad, _ = covector_slot(fr.form, [xp.cleared] * (q - 1))
    if not any(hyper_grad):
        raise SingularConfiguration("x' is a singular hypersurface point")
    # the tangent hyperplane at x' is the kernel of the nonzero gradient
    # there, so tau_A(x) kills it exactly when it is a nonzero multiple
    cov = tau_covector(fr, a, xe)
    if backend.rank([cov[0], hyper_grad]) != 1 or not any(cov[0]):
        raise DualityViolation("tau_A(x) does not kill the tangent "
                               "hyperplane at x'")
    return xp, cov


def homogeneity_witness(fr: NormFrame, a: JordanElement, b: JordanElement,
                        x: RankOnePoint, backend=EXACT) -> JordanElement:
    """tau_A^{-1} tau_B applied to a rank-one point; stays rank one."""
    a, b, xe = (e.lifted(backend) for e in (a, b, x.element))
    if backend.is_zero(fr.norm(a), 0) or backend.is_zero(fr.norm(b), 0):
        raise SingularConfiguration("need Q(A) != 0 and Q(B) != 0")
    # tau_A = N / d and tau_B x = nums / den, so N y = d * nums gives den * image
    t = tau(fr, a)
    nums, den = tau_covector(fr, b, xe)
    y, d = backend.solve(t.numerators, [t.denominator * v for v in nums])
    return reduced(fr.spec, y, d * den)


def tangent_intersection(xa: RankOnePoint, xb: RankOnePoint):
    """Basis of T_A int T_B via stacked annihilator covectors."""
    stacked = []
    for x in (xa, xb):
        stacked.extend(exact_nullspace(tangent_frame(x)))
    return exact_nullspace(stacked)


def tangent_intersection_dim(xa: RankOnePoint, xb: RankOnePoint,
                             backend=EXACT) -> int:
    """dim(T_A int T_B) = dim T_A + dim T_B - dim(T_A + T_B)."""
    rows_a = tangent_frame(xa)
    rows_b = tangent_frame(xb)
    return (backend.rank(rows_a) + backend.rank(rows_b)
            - backend.rank(rows_a + rows_b))


def product_projection(fr: NormFrame, xa: RankOnePoint,
                       xb: RankOnePoint) -> JordanElement:
    """Orthogonal projection of the distinguished multiple of I.

    Projects [(k+1)^2 Q(I,..,I,A) Q(I,..,I,B) - k(k+1)/2 Q(I,..,I,A,B)] I
    onto the intersection of the two tangent spaces; for generic rank-one
    pairs this reproduces the bilinear product of the two points.
    """
    spec = fr.spec
    k, q = spec.k, fr.q
    basis = tangent_intersection(xa, xb)
    if len(basis) != spec.delta:
        raise DegenerateIntersection(
            f"intersection dimension {len(basis)} != {spec.delta}")
    a, b = xa.element, xb.element
    pa = unit_pairing(fr, a)
    pb = unit_pairing(fr, b)
    cross = partial_polarize(fr.form, fr.unit.cleared, q - 2,
                             [a.cleared, b.cleared])
    scal = (k + 1) * (k + 1) * pa * pb - Fraction(k * (k + 1), 2) * cross
    # <w_i, w_j> = w_i^T G w_j with G = N / d; the int system N' c = d * rhs,
    # N'[i][j] = w_i^T N w_j, has the same solution as the Gram system
    g = fr.gram
    images = [mat_vec(g.numerators, w) for w in basis]
    gram = [[sum(x * y for x, y in zip(wi, gj)) for gj in images] for wi in basis]
    # <scal*I, w> = scal * Q(I,...,I,w) because tau_I fixes I
    rhs = [g.denominator * scal * unit_pairing(fr, fr.element(w)) for w in basis]
    try:
        coeffs, d = exact_solve(gram, rhs)
    except SingularMatrix:
        raise DegenerateIntersection("intersection meets its orthogonal space")
    return reduced(spec, *combine(coeffs, [(w, d) for w in basis]))


def expected_mult_kernel_dim(spec: JordanSpec) -> int:
    """k + delta k(k-1)/2: nullity of multiplication by a rank-one element."""
    return spec.k + spec.delta * spec.k * (spec.k - 1) // 2


def mult_kernel_dim(x: RankOnePoint, backend=EXACT) -> int:
    """Measured nullity of B -> x * B."""
    return x.spec.dim - backend.rank(mult_operator(x.element).numerators)


def cone_vertex_stack(form: PolarizedForm, rng):
    """Numerators of dim + 2 covectors v -> F(v, A_i, ..., A_i), random A_i."""
    out = []
    for _ in range(form.dim + 2):
        a = sample_coords(rng, form.dim)
        out.append(list(covector_slot(form, [(a, 1)] * (form.degree - 1))[0]))
    return out

