"""Verification suite orchestration: ``run_suite(config)`` returns the
report of the configured checks, and the caller decides where it goes.

Every claim the package makes is wrapped as a named check. A check runs a
number of independent randomized trials; trial i of check c under seed s
draws from a ``random.Random`` seeded by the 64-bit mix of
(s, suite-of-c, id-of-c, i) (see rng.py), so results are reproducible and
no trial depends on which trials ran before it. Aggregation is a pure
max/all reduction over the trial list indexed by trial number. A trial whose
draw is degenerate (an ``rng.DegenerateDraw``, the one ``_RESAMPLE`` type)
runs its check body again on the rest of the same stream, up to 64 runs;
``_run_one_trial`` is the only place that draws again.

Most claims are sampled identities, stated once in their ``CHECKS`` entry
beside the anchor: ``_ck_identity(operands, sides)`` draws one operand per
letter (see ``_OPERANDS``), all before either side, and compares the two
elements or scalars that ``sides`` returns; a sides function of the
frame, like those of ``cubic``, enters through ``_on_frame``. Checks of
ranks, dimensions and group actions, and those with draws or verdicts of
their own, keep their own bodies; the two severi checks of power-word
families compare a largest deviation against a cubic scale
(``_ck_residual``).

One backend object (backend.py) decides the arithmetic mode, and every body
runs in both modes through it. Discrete constructions (rank-one vectors,
permutation operators) are always built over the integers because the
claims are about what is built from them.

Shapes where a claim's hypotheses fail are reported as skips: everything
that needs the commutative product to satisfy the defining identity (the
geometry, symmetry and degree-three suites, plus the structure-group laws)
skips on 4x4-and-larger octonion algebras, and the violation-hunting
negative suite skips everywhere else.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .backend import EXACT, FloatBackend, TrialOutcome
from .composition import ALLOWED_DIMS, cd_mul, cd_norm
from .jordan import (JordanElement, JordanSpec, identity, jordan_mul,
                     jordan_rank, mult_operator, quadratic_rep, reduced)
from .linalg import ratio, value
from .polarization import covector_slot, partial_polarize
from .reconstruction import (NormFrame, derivative_product_oracle, frame, inner,
                             orbit_map_derivative, reconstructed_product, sharp,
                             structural_map, tau, tau_covector, unit_pairing)
from .geometry import (cone_vertex_stack, dual_point, expected_mult_kernel_dim,
                       expected_tangent_rank, homogeneity_witness, mult_kernel_dim,
                       product_projection, rank_one_double_slot, sample_rank_one,
                       tangent_frame, tangent_intersection_dim, terracini_dim,
                       terracini_expected)
from .symmetry import (GroupElementSample, automorphism_trichotomy,
                       lie_triple_sides, permutation_conjugation_sample,
                       structural_sample)
from .cubic import (adjoint, bracketing_residual, cayley_hamilton_sides,
                    comatrix_product_sides, double_adjoint_sides,
                    fourth_power_residuals, mixed_adjoint_sides,
                    scalar_reduction_sides, square_decomposition_sides,
                    unit_reduction_sides)
from .report import FAIL, PASS, SKIP, CheckResult, VerificationReport
from .rng import DegenerateDraw, sample_coords, stream_rng

SUITES = ("algebra", "mccrimmon", "geometry", "symmetric", "severi", "negative")
MODES = ("exact", "float")

# a degenerate draw, not a counterexample: the trial runs its body again
_RESAMPLE = (DegenerateDraw,)
_RUNS = 64


class InvalidConfig(ValueError):
    """Configuration rejected before any check runs."""


class RunConfig(namedtuple("RunConfig", "k delta suite trials seed mode tol",
                           defaults=("all", 50, 0, "exact", 1e-8))):
    __slots__ = ()

    def validate(self) -> "RunConfig":
        # a bool is an int, but True and 1 must not echo as two spellings
        if type(self.k) is not int or self.k < 2:
            raise InvalidConfig(f"k must be an integer >= 2, got {self.k!r}")
        if type(self.delta) is not int or self.delta not in ALLOWED_DIMS:
            raise InvalidConfig(f"delta must be one of {ALLOWED_DIMS}, "
                                f"got {self.delta!r}")
        if self.suite != "all" and self.suite not in SUITES:
            raise InvalidConfig(f"unknown suite {self.suite!r}; pick from "
                                f"{('all',) + SUITES}")
        if type(self.trials) is not int or self.trials < 1:
            raise InvalidConfig(f"trials must be a positive integer, got {self.trials!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2 ** 64:
            raise InvalidConfig(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        # a Fraction tolerance would run, then fail to render as JSON
        if type(self.tol) is not float:
            raise InvalidConfig(f"tol must be a float, got {self.tol!r}")
        # a tolerance of 1 or more accepts any error of unit size
        if not 0 < self.tol < 1:
            raise InvalidConfig(f"tol must be a number in (0, 1), got {self.tol!r}")
        if self.suite == "severi" and self.k != 2:
            raise InvalidConfig("the severi suite needs k = 2 (cubic norm)")
        if self.suite == "negative" and (self.k, self.delta) != (3, 8):
            raise InvalidConfig("the negative suite needs (k, delta) = (3, 8)")
        return self


class RunEnv:
    """Per-run bundle: spec, frame and the arithmetic backend of the mode."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.spec = JordanSpec(config.k, config.delta)
        self.backend = EXACT if config.mode == "exact" else FloatBackend(config.tol)
        self.unit = identity(self.spec)

    @property
    def frame(self) -> NormFrame:
        """The shape's cached frame, built by the first check that reads it."""
        return frame(self.spec)

    def sample(self, rng) -> JordanElement:
        # drawn ints (or their floats) over 1 are already in the number format
        return reduced(self.spec, self.backend.lift(sample_coords(rng, self.spec.dim)), 1)

    def sample_invertible(self, rng) -> JordanElement:
        return self.frame.random_invertible(rng).lifted(self.backend)

    @cached_property
    def adjoint_fixes_unit(self) -> bool:
        """Whether adj(I) = I, a constant of the frame, read once per run."""
        return adjoint(self.frame, self.unit) == self.unit


def _is_jordan(env: RunEnv) -> bool:
    return env.spec.is_jordan


def _always(_env: RunEnv) -> bool:
    return True


def _is_cubic(env: RunEnv) -> bool:
    return env.spec.k == 2


def _is_counterexample_shape(env: RunEnv) -> bool:
    return (env.spec.k, env.spec.delta) == (3, 8)


# --------------------------------------------------------------------------
# sampled identities


# what each operand letter draws: an element, one with Q != 0, lifted
# composition-algebra coordinates, a rank-one point (looked up at call time,
# so a tracer that patches sample_rank_one sees the call)
_OPERANDS = {
    "s": RunEnv.sample,
    "i": RunEnv.sample_invertible,
    "c": lambda env, rng: env.backend.lift(sample_coords(rng, env.spec.delta)),
    "r": lambda env, rng: sample_rank_one(env.spec, rng),
}


def _draw(env, rng, operands):
    """One operand per letter of ``operands``, drawn in that order."""
    return [_OPERANDS[kind](env, rng) for kind in operands]


def _ck_identity(operands, sides):
    """The body of a sampled identity: every operand is drawn first, then
    sides(env, *operands) gives two elements or two scalars that must agree."""
    def run(env, rng):
        lhs, rhs = sides(env, *_draw(env, rng, operands))
        if isinstance(lhs, JordanElement):
            return env.backend.close_elements(lhs, rhs)
        return env.backend.close_scalars(lhs, rhs)

    return run


def _on_frame(sides):
    """The sides function of a run for sides(frame, *operands)."""
    return lambda env, *xs: sides(env.frame, *xs)


# --------------------------------------------------------------------------
# algebra suite


def _jordan_sides(_env, a, b):
    sq = jordan_mul(a, a)
    return jordan_mul(a, jordan_mul(b, sq)), jordan_mul(jordan_mul(a, b), sq)


def _power_sides(_env, a):
    sq = jordan_mul(a, a)
    return jordan_mul(sq, sq), jordan_mul(a, jordan_mul(a, sq))


# --------------------------------------------------------------------------
# mccrimmon suite


def _sharp_sides(env, a):
    fr, k = env.frame, env.spec.k
    cov = covector_slot(fr.form, [fr.unit.cleared] * (fr.q - 2) + [a.cleared])
    return (sharp(fr, cov),
            (env.unit.scale((k + 1) * unit_pairing(fr, a)) - a).scale(ratio(1, k)))


def _semisimilarity_sides(env, a, b):
    fr = env.frame
    hb = reduced(env.spec, *structural_map(fr, a).apply(*b.cleared))
    qa = fr.norm(a)
    return fr.norm(hb) * qa * qa, fr.norm(b)


def _ck_quadratic_structural(env, rng):
    a = env.sample_invertible(rng)
    comp = structural_map(env.frame, a).compose(quadratic_rep(a))
    nums, den, n = comp.numerators, comp.denominator, env.spec.dim
    # the largest deviation from the identity, counted in numerators
    dev = max(abs(nums[i][j] - (den if i == j else 0))
              for i in range(n) for j in range(n))
    scale = max(abs(v) for row in nums for v in row) / den
    return env.backend.small(value(dev, den), scale)


def _tau_symmetry_sides(env, m, b, c):
    # tau_M(C)(B) read from the operator against tau_M(B)(C) from the closed
    # two-slot formula, both times Q(M)^2 so that exact values stay integral
    fr = env.frame
    q, qm = fr.q, fr.norm(m)
    mc, bc, cc = m.cleared, b.cleared, c.cleared
    read = b.dot(*tau_covector(fr, m, c)) * qm * qm
    closed = (q * partial_polarize(fr.form, mc, [bc])
              * partial_polarize(fr.form, mc, [cc])
              - (q - 1) * qm * partial_polarize(fr.form, mc, [bc, cc]))
    return read, closed


def _ck_tau_normalized_det(env, rng):
    fr, spec = env.frame, env.spec
    m = env.sample_invertible(rng)
    # tau_M = N / d, so det(tau_M) / det_gram = det(N) / (d^dim det_gram)
    t = tau(fr, m)
    return env.backend.det_ratio(t.numerators,
                                 t.denominator ** spec.dim * fr.det_gram,
                                 fr.norm(m), -2 - spec.k * spec.delta)


# --------------------------------------------------------------------------
# geometry suite


def _ck_tangent_rank(env, rng):
    x = sample_rank_one(env.spec, rng)
    want = expected_tangent_rank(env.spec)
    got = env.backend.rank(tangent_frame(x))
    return TrialOutcome(got == want, None, {"rank": got, "expected": want})


def _ck_terracini(env, rng):
    spec = env.spec
    ls = list(range(spec.k + 1))
    dims = [terracini_dim(spec, l, rng, env.backend) for l in ls]
    wants = [terracini_expected(spec, l) for l in ls]
    return TrialOutcome(dims == wants, None, {"l": ls, "dims": dims, "expected": wants})


def _ck_secant_membership(env, rng):
    spec = env.spec
    for l in range(spec.k + 1):
        total = sample_rank_one(spec, rng).element
        for _ in range(l):
            total = total + sample_rank_one(spec, rng).element
        point = total.lifted(env.backend)
        r = jordan_rank(point, env.backend)
        if r < l + 1:
            # the random points were linearly degenerate; draw again
            raise DegenerateDraw(f"degenerate secant sample at l={l}")
        if r != l + 1:
            return TrialOutcome(False, None, {"l": l, "rank": r})
    return TrialOutcome(True)


def _ck_double_point(env, rng):
    fr, spec = env.frame, env.spec
    x = sample_rank_one(spec, rng)
    fillers = [env.sample(rng) for _ in range(fr.q - 2)]
    value = rank_one_double_slot(fr, x, fillers)
    scale = float(x.element.max_abs())
    for f in fillers:
        scale *= 1 + float(f.max_abs())
    return env.backend.small(value, scale ** 2)


def _ck_dual_point(env, rng):
    fr = env.frame
    x = sample_rank_one(env.spec, rng)
    # dual_point raises DualityViolation when a claim fails
    xp, _ = dual_point(fr, x, fr.random_invertible(rng), env.backend)
    return TrialOutcome(True, abs(fr.norm(xp)))


def _ck_homogeneity(env, rng):
    fr = env.frame
    a = fr.random_invertible(rng)
    b = fr.random_invertible(rng)
    x = sample_rank_one(env.spec, rng)
    r = jordan_rank(homogeneity_witness(fr, a, b, x, env.backend), env.backend)
    return TrialOutcome(r == 1, None, {"rank": r})


def _ck_tangent_intersection(env, rng):
    got = tangent_intersection_dim(*_draw(env, rng, "rr"), env.backend)
    want = env.spec.delta
    return TrialOutcome(got == want, None, {"dim": got, "expected": want})


def _ck_mult_kernel(env, rng):
    spec = env.spec
    got = mult_kernel_dim(sample_rank_one(spec, rng), env.backend)
    want = expected_mult_kernel_dim(spec)
    return TrialOutcome(got == want, None, {"dim": got, "expected": want})


def _ck_cone_vertex(env, rng):
    fr, spec = env.frame, env.spec
    stack = cone_vertex_stack(fr.form, rng)
    got = env.backend.rank(stack)
    return TrialOutcome(got == spec.dim, None, {"rank": got, "expected": spec.dim})


# --------------------------------------------------------------------------
# symmetric suite


def _ck_permutation_similarity(env, rng):
    g = permutation_conjugation_sample(env.frame, rng, env.backend)
    ok = env.backend.close_scalars(g.norm_factor, 1).ok
    return TrialOutcome(ok, None, None if ok else {"factor": g.norm_factor})


def _ck_automorphism_trichotomy(env, rng):
    fr = env.frame
    g = permutation_conjugation_sample(fr, rng)
    pos = automorphism_trichotomy(g, rng)
    h = structural_sample(fr, rng)
    neg = automorphism_trichotomy(h, rng)
    ok = pos == (True, True, True) and neg == (False, False, False)
    return TrialOutcome(ok, None, {"automorphism": list(pos), "similarity": list(neg)})


def _ck_structural_norm_factor(env, rng):
    fr = env.frame
    a = fr.random_invertible(rng)
    g = GroupElementSample(fr, structural_map(fr, a), "structural", rng)
    qa = fr.norm(a)
    return env.backend.close_scalars(g.norm_factor, ratio(1, qa * qa))


def _ck_composite_similarity(env, rng):
    fr = env.frame
    g = permutation_conjugation_sample(fr, rng)
    a = fr.random_invertible(rng)
    comp = GroupElementSample(fr, g.operator.compose(structural_map(fr, a)),
                              "composite", rng)
    qa = fr.norm(a)
    return env.backend.close_scalars(comp.norm_factor,
                                     g.norm_factor * ratio(1, qa * qa))


# --------------------------------------------------------------------------
# severi suite (cubic norm)


def _cubic_scale(power, *elements):
    scale = 1.0
    for e in elements:
        scale = max(scale, 1 + float(e.max_abs()))
    return scale ** power


def _ck_adjoint_comatrix(env, rng):
    fr = env.frame
    a = env.sample(rng)
    out = env.backend.close_elements(*comatrix_product_sides(fr, a))
    # the adjoint normalization is pinned by evaluating at the unit; record
    # the outcome so reports document which convention is in force
    unit_fixed = env.adjoint_fixes_unit
    witness = {"normalization": "adj(I) = I" if unit_fixed else "adj(I) != I"}
    return TrialOutcome(out.ok and unit_fixed, out.err, witness)


def _ck_residual(residual, power):
    """The body of a check of a family of power words: residual(frame, A),
    their largest deviation from the recursion, is small against A's cubic
    scale of degree ``power``."""
    def run(env, rng):
        (a,) = _draw(env, rng, "s")
        return env.backend.small(residual(env.frame, a), _cubic_scale(power, a))

    return run


def _ck_rank_characterization(env, rng):
    fr = env.frame
    spec = env.spec
    samples = [
        sample_rank_one(spec, rng).element,
        sample_rank_one(spec, rng).element + sample_rank_one(spec, rng).element,
        env.sample(rng),
    ]
    for m in samples:
        point = m.lifted(env.backend)
        r = jordan_rank(point, env.backend)
        adj_zero = env.backend.is_zero(adjoint(fr, point).max_abs(),
                                       _cubic_scale(2, point))
        q_zero = env.backend.is_zero(fr.norm(point), _cubic_scale(3, point))
        if ((r <= 1) != adj_zero) or ((r <= 2) != q_zero):
            return TrialOutcome(False, None,
                                {"rank": r, "adj_zero": adj_zero, "q_zero": q_zero})
    return TrialOutcome(True)


# --------------------------------------------------------------------------
# negative suite


def _ck_jordan_violation(env, rng):
    a, b = _draw(env, rng, "ss")
    out = env.backend.close_elements(*_jordan_sides(env, a, b))
    witness = None
    if not out.ok:
        witness = {"a": list(a.coords()), "b": list(b.coords()),
                   "residual": out.err}
    return TrialOutcome(not out.ok, out.err, witness)


# --------------------------------------------------------------------------
# registry


CheckDef = namedtuple("CheckDef",
                      "id suite anchor run supported expect_violation keep_witness",
                      defaults=(_always, False, False))


CHECKS = (
    CheckDef("unit-law", "algebra", "I*A = A",
             _ck_identity("s", lambda env, a: (jordan_mul(env.unit, a), a))),
    CheckDef("commutativity", "algebra", "A*B = B*A",
             _ck_identity("ss", lambda _env, a, b: (jordan_mul(a, b),
                                                    jordan_mul(b, a)))),
    CheckDef("jordan-identity", "algebra", "A*(B*(A*A)) = (A*B)*(A*A)",
             _ck_identity("ss", _jordan_sides), _is_jordan),
    CheckDef("power-associativity", "algebra", "(A*A)*(A*A) = A*(A*(A*A))",
             _ck_identity("s", _power_sides), _is_jordan),
    CheckDef("norm-multiplicativity", "algebra", "N(xy) = N(x) N(y)",
             _ck_identity("cc", lambda env, x, y: (
                 cd_norm(cd_mul(x, y, env.spec.delta)), cd_norm(x) * cd_norm(y)))),
    CheckDef("product-reconstruction", "mccrimmon",
             "A*B rebuilt from polarizations of Q",
             _ck_identity("ss", lambda env, a, b: (
                 reconstructed_product(env.frame, a, b), jordan_mul(a, b)))),
    CheckDef("derivative-oracle", "mccrimmon",
             "A*B = -1/2 d/dt H_{I+tA}(B) at t=0",
             _ck_identity("ss", lambda env, a, b: (
                 derivative_product_oracle(env.frame, a, b), jordan_mul(a, b)))),
    CheckDef("orbit-derivative", "mccrimmon",
             "d/dt tau_I^{-1} tau_{I+tA}(I) at t=0 = -2A",
             _ck_identity("s", lambda env, a: (orbit_map_derivative(env.frame, a),
                                               a.scale(-2)))),
    CheckDef("trace-lemma", "mccrimmon", "tr(M_A) = dim(V) Q(I,..,I,A)",
             _ck_identity("s", lambda env, a: (
                 mult_operator(a).trace(), env.spec.dim * unit_pairing(env.frame, a)))),
    CheckDef("pairing-product", "mccrimmon", "<A,B> = Q(I,..,I,A*B)",
             _ck_identity("ss", lambda env, a, b: (
                 inner(env.frame, a, b), unit_pairing(env.frame, jordan_mul(a, b))))),
    CheckDef("sharp-identity", "mccrimmon",
             "Q(I,..,I,A,.)# = ((k+1) phi(A) I - A)/k",
             _ck_identity("s", _sharp_sides)),
    CheckDef("norm-semisimilarity", "mccrimmon", "Q(H_A B) = Q(A)^-2 Q(B)",
             _ck_identity("is", _semisimilarity_sides), _is_jordan),
    CheckDef("quadratic-structural", "mccrimmon",
             "H_A P(A) = id", _ck_quadratic_structural, _is_jordan),
    CheckDef("tau-symmetry", "mccrimmon", "tau_M(B,C) = tau_M(C,B)",
             _ck_identity("iss", _tau_symmetry_sides)),
    CheckDef("tau-normalized-det", "mccrimmon",
             "det(tau_M)/det(tau_I) = Q(M)^-(2+k delta)",
             _ck_tau_normalized_det, _is_jordan),
    CheckDef("tangent-rank", "geometry",
             "dim T_x = k delta + 1 on the rank-one cone",
             _ck_tangent_rank, _is_jordan),
    CheckDef("terracini-dimension", "geometry",
             "dim S^l = (l+1)(k delta + 1) - delta l(l+1)/2, capped",
             _ck_terracini, _is_jordan, keep_witness=True),
    CheckDef("secant-membership", "geometry",
             "sum of l+1 rank-one points has rank l+1",
             _ck_secant_membership, _is_jordan),
    CheckDef("double-point", "geometry",
             "Q(x, x, C_3, .., C_q) = 0 on the rank-one cone",
             _ck_double_point, _is_jordan),
    CheckDef("dual-point", "geometry",
             "Q(x') = 0 and tau_A(x) cuts the tangent hyperplane at x'",
             _ck_dual_point, _is_jordan),
    CheckDef("homogeneity", "geometry",
             "tau_A^{-1} tau_B maps the rank-one cone to itself",
             _ck_homogeneity, _is_jordan),
    CheckDef("tangent-intersection", "geometry",
             "dim(T_A int T_B) = delta", _ck_tangent_intersection, _is_jordan),
    CheckDef("projection-formula", "geometry",
             "A*B recovered from the tangent-intersection pairing",
             _ck_identity("rr", lambda env, xa, xb: (
                 product_projection(env.frame, xa, xb),
                 jordan_mul(xa.element, xb.element))),
             _is_jordan),
    CheckDef("mult-kernel", "geometry",
             "dim ker M_x = k + delta k(k-1)/2", _ck_mult_kernel, _is_jordan),
    CheckDef("cone-vertex", "geometry",
             "the norm hypersurface is not a cone over a vertex",
             _ck_cone_vertex, _is_jordan),
    CheckDef("permutation-similarity", "symmetric",
             "Q(P M P^H) = Q(M) for signed permutations P",
             _ck_permutation_similarity, _is_jordan),
    CheckDef("automorphism-trichotomy", "symmetric",
             "product-preserving iff unit-fixing; both force pairing-preserving",
             _ck_automorphism_trichotomy, _is_jordan),
    CheckDef("structural-norm-factor", "symmetric",
             "H_A scales Q by Q(A)^-2", _ck_structural_norm_factor, _is_jordan),
    CheckDef("composite-similarity", "symmetric",
             "similarity factors multiply under composition",
             _ck_composite_similarity, _is_jordan),
    CheckDef("lie-triple", "symmetric", "[M_A, M_B] is a derivation of *",
             _ck_identity("ssss", lambda _env, *xs: lie_triple_sides(*xs)),
             _is_jordan),
    CheckDef("adjoint-comatrix", "severi",
             "A * adj(A) = Q(A) I", _ck_adjoint_comatrix, _is_cubic,
             keep_witness=True),
    CheckDef("double-adjoint", "severi", "adj(adj(A)) = Q(A) A",
             _ck_identity("s", _on_frame(double_adjoint_sides)), _is_cubic),
    CheckDef("mixed-adjoint", "severi",
             "4 Q(adj A, Q(A,B,.)#, .)# = 3 Q(A,A,B) A + Q(A) B",
             _ck_identity("ss", _on_frame(mixed_adjoint_sides)), _is_cubic),
    CheckDef("unit-reduction", "severi",
             "2 Q(adj A, A, .)# = 6 phi(A) Q(adj A, I, .)# - Q(A) I - 3 Q(A,A,I) A",
             _ck_identity("s", _on_frame(unit_reduction_sides)), _is_cubic),
    CheckDef("scalar-reduction", "severi",
             "2 Q(adj A, A, I) = 3 phi(A) Q(A,A,I) - Q(A)",
             _ck_identity("s", _on_frame(scalar_reduction_sides)), _is_cubic),
    CheckDef("square-decomposition", "severi",
             "A*A = adj(A) + 3 phi(A) A - 3 Q(I,A,A) I",
             _ck_identity("s", _on_frame(square_decomposition_sides)), _is_cubic),
    CheckDef("cayley-hamilton", "severi",
             "A^3 = 3 Q(A,I,I) A^2 - 3 Q(A,A,I) A + Q(A) I",
             _ck_identity("s", _on_frame(cayley_hamilton_sides)), _is_cubic),
    CheckDef("fourth-power", "severi",
             "A^2*A^2 = A*A^3 = closed form in I, A, A^2",
             _ck_residual(lambda fr, a: max(fourth_power_residuals(fr, a)), 4),
             _is_cubic),
    CheckDef("bracketing-words", "severi",
             "all bracketings of the m-fold product agree, m <= 6",
             # looked up at call time, so a tracer that patches the module name
             # sees the call
             _ck_residual(lambda fr, a: bracketing_residual(fr, a, upto=6), 6),
             _is_cubic),
    CheckDef("rank-characterization", "severi",
             "rank <= 1 iff adj(A) = 0; rank <= 2 iff Q(A) = 0",
             _ck_rank_characterization, _is_cubic),
    CheckDef("jordan-violation", "negative",
             "A*(B*(A*A)) != (A*B)*(A*A) for some A, B",
             _ck_jordan_violation, _is_counterexample_shape,
             expect_violation=True),
)

if len({c.id for c in CHECKS}) != len(CHECKS):
    raise ValueError("check ids in the registry must be unique")


def checks_for(config: RunConfig):
    if config.suite == "all":
        return CHECKS
    return tuple(c for c in CHECKS if c.suite == config.suite)


def _run_one_trial(env, check, i):
    rng = stream_rng(env.config.seed, check.suite, check.id, i)
    for runs_left in reversed(range(_RUNS)):
        try:
            return check.run(env, rng)
        # a degenerate draw runs the body again on the rest of the stream; a
        # failed construction, or a degenerate last run, is a failed trial;
        # any other exception is a bug in the program, which must stop the
        # run instead of reading as a fail
        except (ValueError, ArithmeticError) as exc:
            if runs_left and isinstance(exc, _RESAMPLE):
                continue
            return TrialOutcome(False, None,
                                {"error": f"{type(exc).__name__}: {exc}"})


# the unused third parameter keeps the signature that perfbench/layers.py wraps
def _run_check(env: RunEnv, check: CheckDef, _threads: int) -> CheckResult:
    trials = env.config.trials
    outcomes = [_run_one_trial(env, check, i) for i in range(trials)]

    errs = [o.err for o in outcomes if o.err is not None]
    max_err = max(errs) if errs else None
    if check.expect_violation:
        hits = [i for i, o in enumerate(outcomes) if o.ok]
        status = PASS if hits else FAIL
        witness = dict(outcomes[hits[0]].witness or {}, trial=hits[0]) if hits else None
    else:
        bad = [i for i, o in enumerate(outcomes) if not o.ok]
        if bad:
            status = FAIL
            witness = dict(outcomes[bad[0]].witness or {}, trial=bad[0])
        else:
            status = PASS
            witness = outcomes[0].witness if check.keep_witness else None
    return CheckResult(check.id, check.anchor, status, trials, max_err, witness)


def run_suite(config: RunConfig) -> VerificationReport:
    """Execute the configured checks and return their report; write nothing."""
    config.validate()
    env = RunEnv(config)
    results = []
    for check in checks_for(config):
        if not check.supported(env):
            results.append(CheckResult(check.id, check.anchor, SKIP, 0))
            continue
        results.append(_run_check(env, check, 1))
    return VerificationReport(config._asdict(), results)


def dimension_table(k: int, delta: int) -> dict:
    """Dimension counts for one shape: ambient, cone, projective secants."""
    spec = JordanSpec(k, delta)
    return {
        "k": k,
        "delta": delta,
        "dim_v": spec.dim,
        "n": spec.ambient,
        "secant_projective_dims": [terracini_expected(spec, l) - 1
                                   for l in range(spec.k + 1)],
    }
