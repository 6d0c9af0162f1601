"""Acceptance gate: the nine headline guarantees, one printed line each.

Every criterion is exercised at its stated scale. Exact-mode criteria use
rational arithmetic and demand literal equality (equal sides, or a zero
residual); the only numeric tolerances are the wall-clock bound of
criterion 1 and the float tolerances owned by the library itself. Criteria
run in order; each prints a single pass/fail line to the live terminal.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from jordal.cubic import (
    bracketing_residual,
    cayley_hamilton_sides,
    comatrix_product_sides,
    double_adjoint_sides,
    fourth_power_residuals,
    mixed_adjoint_sides,
    scalar_reduction_sides,
    square_decomposition_sides,
    unit_reduction_sides,
)
from jordal.geometry import (
    DegenerateFrame,
    DegenerateIntersection,
    SingularConfiguration,
    dual_point,
    homogeneity_witness,
    product_projection,
    sample_rank_one,
    tangent_intersection,
    terracini_dim,
    terracini_expected,
)
from jordal.jordan import (
    JordanElement,
    JordanSpec,
    identity,
    jordan_mul,
    jordan_rank,
    mult_operator,
    quadratic_rep,
    random_element,
)
from jordal.linalg import exact_det, exact_rank
from jordal.polarization import covector_slot
from jordal.reconstruction import (
    SingularPoint,
    derivative_product_oracle,
    frame,
    inner,
    reconstructed_product,
    sharp,
    structural_map,
    tau,
    unit_pairing,
)
from jordal.rng import stream_rng
from jordal.runner import RunConfig, run_suite
from jordal.symmetry import lie_triple_sides
from oracles import proportional, values, vector_values

FLAGSHIP_SPECS = [(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4),
                  (4, 1), (4, 2), (5, 1)]
RESAMPLE = (SingularConfiguration, SingularPoint, DegenerateIntersection,
            DegenerateFrame)


def announce(capsys, number, name, ok, detail=""):
    tail = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nacceptance {number} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def retrying(rng, build, attempts=64):
    for _ in range(attempts):
        try:
            return build()
        except RESAMPLE:
            continue
    raise AssertionError("could not draw a nondegenerate configuration")


def test_criterion_1_product_reconstruction(capsys):
    """Both norm-only product routes equal the matrix product, 50 pairs per
    shape, under five minutes in total."""
    started = time.monotonic()
    bad = []
    for (k, delta) in FLAGSHIP_SPECS:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(10_001, "acc1", k, delta)
        for trial in range(50):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            want = jordan_mul(a, b)
            if reconstructed_product(fr, a, b) != want:
                bad.append((k, delta, trial, "reconstructed"))
            if derivative_product_oracle(fr, a, b) != want:
                bad.append((k, delta, trial, "derivative"))
    elapsed = time.monotonic() - started
    ok = not bad and elapsed < 300.0
    announce(capsys, 1, "product reconstruction", ok,
             f"10 shapes x 50 pairs, {elapsed:.1f}s")
    assert not bad, bad[:5]
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_2_norm_identity_suite(capsys):
    """Unit law, operator trace, trace pairing, structural semi-similarity,
    normalized tau determinant, and the unit-slot sharp identity: zero
    residual on 20 trials per shape."""
    bad = []
    for (k, delta) in FLAGSHIP_SPECS:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(10_002, "acc2", k, delta)
        e = identity(spec)
        power = 2 + k * delta
        for trial in range(20):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            m = fr.random_invertible(rng)
            checks = {
                "unit": jordan_mul(e, a) == a,
                "trace": mult_operator(m).trace()
                == spec.dim * unit_pairing(fr, m),
                "pairing": inner(fr, a, b) == unit_pairing(fr, jordan_mul(a, b)),
                "semisimilarity": fr.norm(
                    JordanElement(spec, vector_values(
                        structural_map(fr, m).apply(*b.cleared))))
                * fr.norm(m) ** 2 == fr.norm(b),
                "tau-det": exact_det(values(tau(fr, m))) / fr.det_gram
                == Fraction(1, fr.norm(m) ** power),
                "sharp": sharp(fr, covector_slot(
                    fr.form, [fr.unit.cleared] * (fr.q - 2) + [a.cleared]))
                == (e.scale((k + 1) * unit_pairing(fr, a)) - a).scale(
                    Fraction(1, k)),
            }
            bad.extend((k, delta, trial, name)
                       for name, good in checks.items() if not good)
    announce(capsys, 2, "norm identity suite", not bad,
             "6 identities x 10 shapes x 20 trials")
    assert not bad, bad[:5]


def test_criterion_3_terracini_dimensions(capsys):
    """Measured secant tangent dimension equals
    (l+1)(k delta+1) - delta l(l+1)/2 capped at dim V, for every l and shape,
    three resamples each; codimension one exactly at l = k-1."""
    bad = []
    for (k, delta) in FLAGSHIP_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(10_003, "acc3", k, delta)
        for l in range(k + 1):
            want = min(spec.dim, (l + 1) * (k * delta + 1)
                       - delta * l * (l + 1) // 2)
            if want != terracini_expected(spec, l):
                bad.append((k, delta, l, "formula"))
            for resample in range(3):
                got = terracini_dim(spec, l, rng)
                if got != want:
                    bad.append((k, delta, l, resample, got, want))
        if terracini_expected(spec, k - 1) != spec.dim - 1:
            bad.append((k, delta, "hypersurface-codim"))
    announce(capsys, 3, "terracini dimensions", not bad,
             "all 0 <= l <= k, 3 resamples")
    assert not bad, bad[:5]


def test_criterion_4_duality_and_homogeneity(capsys):
    """Dual points land on the norm hypersurface with the right tangent
    covector, and structural transport keeps rank one: 20 configurations
    per shape with k in {2, 3}."""
    bad = []
    for (k, delta) in [s for s in FLAGSHIP_SPECS if s[0] in (2, 3)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(10_004, "acc4", k, delta)
        for trial in range(20):
            def build():
                x = sample_rank_one(spec, rng)
                a = fr.random_invertible(rng)
                b = fr.random_invertible(rng)
                return x, a, dual_point(fr, x, a), homogeneity_witness(
                    fr, a, b, x)
            x, a, (xp, cov), y = retrying(rng, build)
            if fr.norm(xp) != 0:
                bad.append((k, delta, trial, "norm"))
            grad = vector_values(covector_slot(fr.form, [xp.cleared] * (fr.q - 1)))
            if not proportional(vector_values(cov), grad):
                bad.append((k, delta, trial, "gradient"))
            if jordan_rank(y) != 1:
                bad.append((k, delta, trial, "rank"))
    announce(capsys, 4, "duality and homogeneity", not bad,
             "7 shapes x 20 configurations")
    assert not bad, bad[:5]


def test_criterion_5_projection_formula(capsys):
    """Tangent spaces at two generic rank-one points meet in dimension delta
    and the distinguished projection of the unit is the product: 20 pairs
    per 3x3 shape."""
    bad = []
    for delta in (1, 2, 4, 8):
        spec = JordanSpec(2, delta)
        fr = frame(spec)
        rng = stream_rng(10_005, "acc5", delta)
        for trial in range(20):
            def build():
                xa = sample_rank_one(spec, rng)
                xb = sample_rank_one(spec, rng)
                meet = tangent_intersection(xa, xb)
                return xa, xb, meet, product_projection(fr, xa, xb)
            xa, xb, meet, projected = retrying(rng, build)
            if len(meet) != delta or exact_rank(meet) != delta:
                bad.append((delta, trial, "intersection", len(meet)))
            if projected != jordan_mul(xa.element, xb.element):
                bad.append((delta, trial, "projection"))
    announce(capsys, 5, "projection formula", not bad,
             "4 shapes x 20 pairs")
    assert not bad, bad[:5]


def test_criterion_6_cubic_suite(capsys):
    """Adjoint, the four reduction relations, Cayley-Hamilton, the two
    fourth-power displays, and every bracketing to word length 6: equal
    sides, or a zero residual, on 50 trials per entry algebra."""
    bad = []
    for delta in (1, 2, 4, 8):
        fr = frame(JordanSpec(2, delta))
        rng = stream_rng(10_006, "acc6", delta)
        for trial in range(50):
            a = random_element(fr.spec, rng)
            b = random_element(fr.spec, rng)
            sides = {
                "comatrix": comatrix_product_sides(fr, a),
                "rel1": double_adjoint_sides(fr, a),
                "rel2": mixed_adjoint_sides(fr, a, b),
                "rel3": unit_reduction_sides(fr, a),
                "rel4": scalar_reduction_sides(fr, a),
                "square": square_decomposition_sides(fr, a),
                "cayley-hamilton": cayley_hamilton_sides(fr, a),
                "fourth": (max(fourth_power_residuals(fr, a)), 0),
                "bracketing": (bracketing_residual(fr, a, upto=6), 0),
            }
            bad.extend((delta, trial, name)
                       for name, (lhs, rhs) in sides.items() if lhs != rhs)
    announce(capsys, 6, "cubic identity suite", not bad,
             "9 identities x 4 algebras x 50 trials")
    assert not bad, bad[:5]


def test_criterion_7_negative_control(capsys):
    """The 4x4 octonion shape must produce a recorded counterexample to the
    defining identity within 10 trials."""
    rep = run_suite(RunConfig(k=3, delta=8, suite="negative",
                              trials=10, seed=1))
    (res,) = rep.checks
    witness = res.witness or {}
    ok = (res.status == "pass" and witness.get("residual", 0) != 0
          and 0 <= witness.get("trial", 99) < 10)
    announce(capsys, 7, "negative control", ok,
             f"violation at trial {witness.get('trial')}")
    assert ok, res


def test_criterion_8_lie_triple(capsys):
    """Commutators of multiplication operators act as derivations: equal
    sides on 20 quadruples per shape."""
    bad = []
    for (k, delta) in FLAGSHIP_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(10_008, "acc8", k, delta)
        for trial in range(20):
            a, b, x, y = (random_element(spec, rng) for _ in range(4))
            lhs, rhs = lie_triple_sides(a, b, x, y)
            if lhs != rhs:
                bad.append((k, delta, trial))
    announce(capsys, 8, "lie triple derivations", not bad,
             "10 shapes x 20 quadruples")
    assert not bad, bad[:5]


def failing_checks(path):
    """[(id, witness)] of the failed checks in a JSON report, for messages."""
    try:
        doc = json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:
        return f"no readable report: {exc}"
    return [(c["id"], c.get("witness")) for c in doc["checks"]
            if c["status"] == "fail"]


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    """The flagship configuration emits byte-identical JSON with 8 worker
    threads and with 1."""
    out1 = tmp_path / "threads1.json"
    out8 = tmp_path / "threads8.json"
    base = [sys.executable, "-m", "jordal.cli", "verify", "--k", "2",
            "--delta", "8", "--suite", "all", "--trials", "50",
            "--seed", "42", "--mode", "exact"]
    procs = [
        subprocess.Popen(base + ["--threads", "1", "--report", str(out1)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE),
        subprocess.Popen(base + ["--threads", "8", "--report", str(out8)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE),
    ]
    stderrs = [p.communicate()[1].decode("utf-8", "replace") for p in procs]
    codes = [p.returncode for p in procs]
    diagnosis = {
        f"threads{n}": {"exit": code, "stderr": err,
                        "failed": failing_checks(out)}
        for n, code, err, out in zip((1, 8), codes, stderrs, (out1, out8))}
    if codes != [0, 0]:
        announce(capsys, 9, "deterministic reports", False, f"exit codes {codes}")
    assert codes == [0, 0], diagnosis
    bytes1 = out1.read_bytes()
    bytes8 = out8.read_bytes()
    identical = bytes1 == bytes8
    summary = json.loads(bytes1)["summary"]
    ok = identical and codes == [0, 0] and summary["failed"] == 0
    announce(capsys, 9, "deterministic reports", ok,
             f"{len(bytes1)} bytes, summary {summary}")
    assert summary["failed"] == 0, diagnosis
    assert identical, diagnosis


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
