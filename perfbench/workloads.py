"""The benchmark's workloads: `jordal verify` argument sets and expected verdicts.

Every workload runs in exact mode with the benchmark's --seed passed through
as `jordal verify --seed`. A check listed in `skips` must be reported as
skipped and every other check must pass; `summary` is the expected
(passed, failed, skipped) count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    delta: int
    suite: str
    trials: int
    summary: tuple
    skips: frozenset
    reason: str

    @property
    def why(self) -> str:
        """One line for BENCHMARK.json: arguments, expected summary, reason."""
        args = " ".join(self.verify_args("N"))
        return (f"jordal verify {args}; expect pass/fail/skip "
                f"{'/'.join(map(str, self.summary))}; {self.reason}")

    def verify_args(self, seed) -> list:
        return ["--k", str(self.k), "--delta", str(self.delta),
                "--suite", self.suite, "--trials", str(self.trials),
                "--seed", str(seed), "--mode", "exact", "--threads", "1"]

    def expected_status(self, check_id: str) -> str:
        return "skip" if check_id in self.skips else "pass"


# Everything that needs the Jordan identity, rank-one points or a cubic norm
# skips on 4x4 octonion matrices.
_QUARTIC_OCTONION_SKIPS = frozenset((
    "jordan-identity", "power-associativity", "norm-semisimilarity",
    "quadratic-structural", "tau-normalized-det", "tangent-rank",
    "terracini-dimension", "secant-membership", "double-point", "dual-point",
    "homogeneity", "tangent-intersection", "projection-formula",
    "mult-kernel", "cone-vertex", "permutation-similarity",
    "automorphism-trichotomy", "structural-norm-factor",
    "composite-similarity", "lie-triple", "adjoint-comatrix",
    "double-adjoint", "mixed-adjoint", "unit-reduction", "scalar-reduction",
    "square-decomposition", "cayley-hamilton", "fourth-power",
    "bracketing-words", "rank-characterization"))

# Trials per run are far fewer than the flagship's 50, so that a run holds
# several repeats of a workload and can report their median.
WORKLOADS = {w.name: w for w in (
    Workload("flagship-slice", 2, 8, "all", 1, (40, 0, 1),
             frozenset({"jordan-violation"}),
             "flagship shape, every check: Fraction, jordan, polarization, "
             "linalg mixed"),
    Workload("quartic-octonion", 3, 8, "all", 1, (11, 0, 30),
             _QUARTIC_OCTONION_SKIPS,
             "degree-4 norm: Q evaluation, polarization dominate; costly "
             "Gram; negative suite"),
    Workload("product-kernel", 3, 4, "algebra", 200, (5, 0, 0),
             frozenset(),
             "cheap jordan_mul trials; Q, polarization, Gram, linalg "
             "bypassed"),
)}
