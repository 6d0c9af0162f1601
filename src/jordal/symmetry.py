"""Point-level symmetry checks: norm similarities, automorphisms, derivations.

Nothing here represents a group; we sample finitely many constructible
operators (signed permutation conjugations and structural maps) and verify
the identities they are supposed to satisfy. The derivation law of
[M_A, M_B] is stated as its two sides, which the runner compares.
"""

from .backend import EXACT
from .jordan import (JordanElement, from_entries, identity, jordan_mul,
                     operator_from_action, random_element, reduced)
from .linalg import LinearOperator, ratio
from .reconstruction import NormFrame, inner, structural_map

# random invertible M a similarity is probed on, and probe pairs (A, B) of
# the automorphism trichotomy
_SIMILARITY_PROBES = 10
_TRICHOTOMY_PROBES = 3


class SimilarityViolation(ValueError):
    """A sampled similarity scales Q by a varying or vanishing ratio: a failed
    claim, not a resampling signal."""


class TrichotomyViolation(ValueError):
    """Sampled probes break a coupling of the automorphism trichotomy.

    Not a resampling signal: it reports a failed claim.
    """


def _conjugate_signed_permutation(a: JordanElement, perm, signs) -> JordanElement:
    """P A P^H for P the signed permutation e_i -> signs[i] e_perm[i]."""
    grid = a.grid()

    def entry(i, j):
        s, x = signs[i] * signs[j], grid[perm[i]][perm[j]]
        return s * x[0] if i == j else tuple(s * c for c in x)

    return from_entries(a.spec, entry)


class GroupElementSample:
    """A sampled norm-similarity operator with a provenance label.

    Construction probes that Q(g M) = lam * Q(M) for one constant lam on
    _SIMILARITY_PROBES random M, in the arithmetic of ``backend``. A varying
    ratio raises SimilarityViolation, and so does a vanishing one: a
    similarity is invertible, so its factor is never 0.
    """

    __slots__ = ("operator", "provenance", "norm_factor", "frame")

    def __init__(self, fr: NormFrame, operator: LinearOperator,
                 provenance: str, rng, backend=EXACT):
        for i in range(_SIMILARITY_PROBES):
            m = fr.random_invertible(rng).lifted(backend).cleared
            qgm, qm = fr.form(operator.apply(*m)), fr.form(m)
            if i == 0:
                qg0, q0 = qgm, qm
            # Q(g M) / Q(M) = Q(g M0) / Q(M0), cross-multiplied: no division
            elif not backend.close_scalars(qgm * q0, qg0 * qm).ok:
                raise SimilarityViolation(
                    f"{provenance}: norm ratio not constant "
                    f"({ratio(qgm, qm)} vs {ratio(qg0, q0)})")
        lam = ratio(qg0, q0)
        if lam == 0:
            raise SimilarityViolation(f"{provenance}: norm factor vanishes")
        object.__setattr__(self, "frame", fr)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "norm_factor", lam)

    def __setattr__(self, *_):
        raise AttributeError("GroupElementSample is immutable")

    def apply(self, a: JordanElement) -> JordanElement:
        return reduced(a.spec, *self.operator.apply(*a.cleared))

    def __repr__(self):
        return f"GroupElementSample({self.provenance}, factor={self.norm_factor})"


def permutation_conjugation_sample(fr: NormFrame, rng,
                                   backend=EXACT) -> GroupElementSample:
    """Conjugation by a random signed permutation of the diagonal frame."""
    spec = fr.spec
    perm = list(range(spec.size))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(spec.size)]
    op = operator_from_action(
        spec, lambda e: _conjugate_signed_permutation(e, perm, signs))
    return GroupElementSample(fr, op, "permutation-conjugation", rng,
                              backend=backend)


def structural_sample(fr: NormFrame, rng) -> GroupElementSample:
    """H_A for a random A with Q(A) not in {0, 1, -1}; running out of draws
    raises a plain ValueError, which fails the trial."""
    for _ in range(200):
        a = fr.random_invertible(rng)
        qa = fr.norm(a)
        if qa * qa != 1:
            return GroupElementSample(fr, structural_map(fr, a), "structural", rng)
    raise ValueError("no A with Q(A)^2 != 1 in 200 draws")


def automorphism_trichotomy(g: GroupElementSample, rng):
    """Probe three conditions: product preserved, unit fixed, pairing preserved.

    Returns (cond1, cond2, cond3) over _TRICHOTOMY_PROBES sampled pairs and
    checks the logical couplings: 1 and 2 come together, and 1 forces 3. A
    broken coupling raises TrichotomyViolation.
    """
    fr = g.frame
    spec = fr.spec
    cond1 = True
    cond3 = True
    for _ in range(_TRICHOTOMY_PROBES):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        ga, gb = g.apply(a), g.apply(b)
        if jordan_mul(ga, gb) != g.apply(jordan_mul(a, b)):
            cond1 = False
        if inner(fr, ga, gb) != inner(fr, a, b):
            cond3 = False
    cond2 = g.apply(identity(spec)) == identity(spec)
    if cond1 != cond2:
        raise TrichotomyViolation("conditions 1 and 2 must agree on samples")
    if cond1 and not cond3:
        raise TrichotomyViolation("condition 1 must force condition 3")
    return cond1, cond2, cond3


def lie_triple_sides(a: JordanElement, b: JordanElement,
                     x: JordanElement, y: JordanElement):
    """D(X*Y) and D(X)*Y + X*D(Y), for the derivation D = [M_A, M_B]."""
    def d(z):
        return jordan_mul(a, jordan_mul(b, z)) - jordan_mul(b, jordan_mul(a, z))

    return d(jordan_mul(x, y)), jordan_mul(d(x), y) + jordan_mul(x, d(y))
