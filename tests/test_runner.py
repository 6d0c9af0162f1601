"""Check registry, suite execution, determinism, and the report formats."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jordal.backend import TrialOutcome
from jordal.cli import default_seed
from jordal.geometry import SingularConfiguration
from jordal.jordan import norm_form
from jordal.reconstruction import frame
from jordal.report import (
    FAIL,
    PASS,
    SKIP,
    CheckResult,
    ReportError,
    VerificationReport,
    emit_report,
    render_csv,
    render_json,
    render_text,
    write_report,
)
from jordal.runner import (
    CHECKS,
    SUITES,
    CheckDef,
    InvalidConfig,
    RunConfig,
    RunEnv,
    _run_one_trial,
    checks_for,
    dimension_table,
    run_suite,
)


def small_config(**kw):
    base = dict(k=2, delta=1, suite="all", trials=2, seed=0)
    base.update(kw)
    return RunConfig(**base)


def test_registry_shape():
    ids = [c.id for c in CHECKS]
    assert len(ids) == len(set(ids)) == 41
    # suites appear as contiguous blocks in declaration order
    suites = [c.suite for c in CHECKS]
    seen = []
    for s in suites:
        if not seen or seen[-1] != s:
            seen.append(s)
    assert seen == ["algebra", "mccrimmon", "geometry", "symmetric",
                    "severi", "negative"]
    counts = {s: suites.count(s) for s in seen}
    assert counts == {"algebra": 5, "mccrimmon": 10, "geometry": 10,
                      "symmetric": 5, "severi": 10, "negative": 1}
    # only the counterexample check expects violations
    assert [c.id for c in CHECKS if c.expect_violation] == ["jordan-violation"]


def test_checks_for_filters_by_suite():
    for suite in SUITES:
        cfg = RunConfig(k=3 if suite == "negative" else 2,
                        delta=8 if suite == "negative" else 1,
                        suite=suite, trials=1, seed=0)
        picked = checks_for(cfg)
        if suite == "all":
            assert [c.id for c in picked] == [c.id for c in CHECKS]
        else:
            assert all(c.suite == suite for c in picked)
            assert picked


def test_invalid_configs():
    bad = [
        dict(k=1, delta=1, suite="all", trials=1, seed=0),
        dict(k=2, delta=3, suite="all", trials=1, seed=0),
        dict(k=2, delta=1, suite="bogus", trials=1, seed=0),
        dict(k=2, delta=1, suite="all", trials=0, seed=0),
        dict(k=2, delta=1, suite="all", trials=1, seed=-1),
        dict(k=2, delta=1, suite="all", trials=1, seed=2 ** 64),
        dict(k=2, delta=1, suite="all", trials=1, seed=0, mode="fuzzy"),
        dict(k=2, delta=1, suite="all", trials=1, seed=0, tol=0.0),
        # tolerances that accept any error
        dict(k=2, delta=2, suite="all", trials=2, seed=7, mode="float",
             tol=float("inf")),
        dict(k=3, delta=8, suite="negative", trials=3, seed=7, mode="float",
             tol=1e300),
        dict(k=2, delta=1, suite="all", trials=1, seed=0, tol=1.0),
        dict(k=2, delta=1, suite="all", trials=1, seed=0, tol=float("nan")),
        # a Fraction tolerance would run and then fail to render as JSON
        dict(k=2, delta=1, suite="algebra", trials=1, seed=0, mode="float",
             tol=Fraction(1, 100)),
        dict(k=2, delta=1, suite="all", trials=1, seed=0, tol=Fraction(1, 100)),
        # bools are ints, but would echo as true: one run, two report bytes
        dict(k=True, delta=1, suite="all", trials=1, seed=0),
        dict(k=2, delta=True, suite="algebra", trials=True, seed=True),
        dict(k=2, delta=1, suite="all", trials=True, seed=0),
        dict(k=2, delta=1, suite="all", trials=1, seed=True),
        dict(k=2, delta=1, suite="all", trials=1, seed=False),
        dict(k=3, delta=1, suite="severi", trials=1, seed=0),
        dict(k=2, delta=1, suite="negative", trials=1, seed=0),
    ]
    for kw in bad:
        with pytest.raises(InvalidConfig):
            RunConfig(**kw).validate()


def test_all_pass_on_smallest_shape():
    rep = run_suite(small_config())
    assert rep.summary == {"passed": 40, "failed": 0, "skipped": 1}
    skipped = [c.id for c in rep.checks if c.status == SKIP]
    assert skipped == ["jordan-violation"]
    assert rep.ok
    # skipped checks report zero trials, everything else the configured count
    for c in rep.checks:
        assert c.trials == (0 if c.status == SKIP else 2)
    # the adjoint normalization convention is documented in the report
    by_id = {c.id: c for c in rep.checks}
    assert by_id["adjoint-comatrix"].witness == {"normalization": "adj(I) = I"}


def test_octonion_four_by_four_skip_set():
    rep = run_suite(RunConfig(k=3, delta=8, suite="all", trials=1, seed=0))
    status = {c.id: c.status for c in rep.checks}
    # differentiating the norm never needs the algebra to be special,
    # so the reconstruction trio still runs and passes
    for cid in ["unit-law", "commutativity", "norm-multiplicativity",
                "product-reconstruction", "derivative-oracle",
                "orbit-derivative", "trace-lemma", "pairing-product",
                "sharp-identity", "tau-symmetry", "jordan-violation"]:
        assert status[cid] == PASS
    # everything needing the defining identity or rank-one sampling skips
    for cid in ["jordan-identity", "power-associativity",
                "norm-semisimilarity", "quadratic-structural",
                "tau-normalized-det", "tangent-rank", "terracini-dimension",
                "lie-triple", "adjoint-comatrix"]:
        assert status[cid] == SKIP
    assert rep.summary["skipped"] == 30
    assert rep.ok


def test_negative_suite_records_witness():
    rep = run_suite(RunConfig(k=3, delta=8, suite="negative", trials=10, seed=0))
    (res,) = rep.checks
    assert res.id == "jordan-violation"
    assert res.status == PASS
    assert res.witness is not None
    assert res.witness["residual"] != 0
    assert 0 <= res.witness["trial"] < 10
    spec_dim = 52
    assert len(res.witness["a"]) == spec_dim
    assert len(res.witness["b"]) == spec_dim


def test_terracini_witness_kept():
    rep = run_suite(RunConfig(k=2, delta=1, suite="geometry", trials=1, seed=0))
    res = {c.id: c for c in rep.checks}["terracini-dimension"]
    assert res.witness == {"l": [0, 1, 2], "dims": [3, 5, 6],
                           "expected": [3, 5, 6]}


def test_report_destination_does_not_change_bytes():
    # RunConfig holds only result-determining parameters and the report
    # echoes all of them, so where a report is written never enters its bytes
    cfg = small_config(trials=2, seed=9)
    echoed = json.loads(emit_report(run_suite(cfg), "json"))["config"]
    assert tuple(echoed) == RunConfig._fields
    assert echoed == {"k": 2, "delta": 1, "suite": "all", "trials": 2,
                      "seed": 9, "mode": "exact", "tol": 1e-8}
    other = cfg._replace(trials=3)
    assert type(other) is RunConfig
    assert other.validate() is other


def clear_shared_caches():
    for cached in (frame, norm_form):
        cached.cache_clear()


def test_cache_state_does_not_change_bytes():
    # cold caches (a new frame and norm table) and warm ones must give the
    # same report bytes
    cfg = RunConfig(k=2, delta=2, suite="all", trials=2, seed=9)
    clear_shared_caches()
    try:
        cold = emit_report(run_suite(cfg), "json")
        warm = emit_report(run_suite(cfg), "json")
    finally:
        clear_shared_caches()
    assert cold == warm


def test_algebra_suite_builds_no_frame():
    # the algebra suite's identities read only the product and the
    # composition norm; a side that touched env.frame would build the frame
    # and Q's table on every cold product-kernel run
    clear_shared_caches()
    try:
        run_suite(RunConfig(k=3, delta=4, suite="algebra", trials=2, seed=0))
        sizes = [cached.cache_info().currsize for cached in (frame, norm_form)]
    finally:
        clear_shared_caches()
    assert sizes == [0, 0]


def test_seed_changes_sampled_witnesses():
    rep1 = run_suite(RunConfig(k=3, delta=8, suite="negative", trials=5, seed=1))
    rep2 = run_suite(RunConfig(k=3, delta=8, suite="negative", trials=5, seed=2))
    w1 = rep1.checks[0].witness
    w2 = rep2.checks[0].witness
    assert w1["a"] != w2["a"]
    # same seed reproduces the exact witness
    rep1b = run_suite(RunConfig(k=3, delta=8, suite="negative", trials=5, seed=1))
    assert rep1b.checks[0].witness == w1


def test_float_mode():
    cfg = RunConfig(k=2, delta=2, suite="all", trials=2, seed=3,
                    mode="float", tol=1e-8)
    rep = run_suite(cfg)
    assert rep.summary["failed"] == 0
    assert rep.summary["passed"] == 40
    # float errors are small but genuinely nonzero somewhere; checks that
    # compare discrete values (ranks, booleans) carry no error at all
    errs = [c.max_abs_error for c in rep.checks
            if c.status == PASS and c.max_abs_error is not None]
    assert all(isinstance(e, (int, float)) for e in errs)
    assert any(e > 0 for e in errs)
    assert all(e < 1e-6 for e in errs)


CORRUPTED_DUAL_POINT = """
import jordal.geometry as geometry
from jordal.runner import CHECKS, RunConfig, RunEnv, _run_check

honest = geometry.tau_covector

def corrupted(fr, m, x):
    # the first entry of the covector nums / den raised by one
    nums, den = honest(fr, m, x)
    return (nums[0] + den,) + nums[1:], den

geometry.tau_covector = corrupted
env = RunEnv(RunConfig(k=2, delta=1, suite="geometry", trials=2).validate())
check = next(c for c in CHECKS if c.id == "dual-point")
result = _run_check(env, check, 1)
print(result.status, (result.witness or {}).get("error", "").split(":")[0])
"""


def run_script(source, *flags, timeout=300):
    """Run python source against this checkout's package in a new process."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *flags, "-c", source],
                          capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_dual_point_fails_under_optimize_flag():
    # python -O strips assert statements; the dual-point claims must still
    # be tested, so a corrupted tangent covector has to fail the check
    assert run_script(CORRUPTED_DUAL_POINT, "-O") == ["fail", "DualityViolation"]


NEVER_ADMISSIBLE = """
import random
import jordal.geometry as geometry
from jordal.jordan import JordanSpec
from jordal.reconstruction import NormFrame
from jordal.runner import _RESAMPLE
from jordal.symmetry import structural_sample

class NeverRankOne:
    def __init__(self, *args):
        raise ValueError("not rank one")

class UnitNormFrame:
    def random_invertible(self, rng):
        return None

    def norm(self, a):
        return 1

class ZeroNormFrame:
    spec = JordanSpec(2, 1)

    def form(self, coords):
        return 0

geometry.RankOnePoint = NeverRankOne
for draw in (lambda rng: geometry.sample_rank_one(JordanSpec(2, 1), rng),
             lambda rng: structural_sample(UnitNormFrame(), rng),
             lambda rng: NormFrame.random_invertible(ZeroNormFrame(), rng)):
    try:
        draw(random.Random(0))
    except ValueError as exc:
        print(type(exc).__name__, isinstance(exc, _RESAMPLE))
"""


def test_samplers_give_up_after_bounded_draws():
    # a sampler that never meets an admissible draw must raise instead of
    # looping (the timeout catches a loop that never ends), and its error
    # must fail the trial: were it a resample class, the trial would run the
    # sampler's whole budget again up to 64 times
    assert run_script(NEVER_ADMISSIBLE, timeout=60) == ["ValueError", "False"] * 3


def body_check(body):
    return CheckDef("probe", "geometry", "probe", body)


def test_degenerate_runs_are_drawn_again_from_the_same_stream():
    # the trial runs its body again on the rest of the one stream it drew
    # from, and the first run that returns gives the outcome
    streams = []

    def body(env, rng):
        streams.append(rng)
        if len(streams) <= 2:
            raise SingularConfiguration("degenerate")
        return TrialOutcome(True, 0, {"runs": len(streams)})

    env = RunEnv(small_config())
    assert _run_one_trial(env, body_check(body), 0) == TrialOutcome(True, 0, {"runs": 3})
    assert len(streams) == 3 and len({id(rng) for rng in streams}) == 1


def test_a_trial_gives_up_after_64_degenerate_runs():
    runs = []

    def body(env, rng):
        runs.append(1)
        raise SingularConfiguration("degenerate")

    out = _run_one_trial(RunEnv(small_config()), body_check(body), 0)
    assert len(runs) == 64
    assert not out.ok
    assert out.witness["error"].startswith("SingularConfiguration")


def test_a_failed_construction_is_not_drawn_again(monkeypatch):
    # with no rank-one point constructible, each geometry check fails on its
    # first construction; a retry loop in the sampler, or around it in the
    # check, would make up to 64 x 200 of them per trial
    import jordal.geometry as geometry
    import jordal.runner as runner

    made = []

    def never(*args):
        made.append(1)
        raise ValueError("not rank one")

    per_check = {}
    honest = runner._run_check

    def counted(env, check, threads):
        before = len(made)
        result = honest(env, check, threads)
        per_check[check.id] = len(made) - before
        return result

    monkeypatch.setattr(geometry, "RankOnePoint", never)
    monkeypatch.setattr(runner, "_run_check", counted)
    rep = run_suite(RunConfig(k=2, delta=1, suite="geometry", trials=1))
    assert set(per_check.values()) == {0, 1}
    for check in rep.checks:
        if per_check[check.id]:
            assert check.status == FAIL
            assert check.witness["error"] == "ValueError: not rank one"


def test_trichotomy_violation_is_a_fail(monkeypatch):
    # a broken coupling of the trichotomy is a counterexample, so it must be
    # reported as `fail` with its exception class, not stop the run
    import itertools

    import jordal.symmetry as symmetry

    counter = itertools.count()
    honest = symmetry.inner
    monkeypatch.setattr(symmetry, "inner",
                        lambda fr, a, b: honest(fr, a, b) + next(counter) % 2)
    rep = run_suite(RunConfig(k=2, delta=1, suite="symmetric", trials=1))
    (check,) = [c for c in rep.checks if c.id == "automorphism-trichotomy"]
    assert check.status == FAIL
    assert check.witness["error"].startswith("TrichotomyViolation:")


SEEDED_NORM = """
from jordal.jordan import JordanSpec, norm_form
from jordal.reconstruction import frame
from jordal.runner import RunConfig, run_suite

spec = JordanSpec(2, 8)
# build the Gram from the honest table: the bump below zeroes a term it needs
frame(spec).gram_inv
form = norm_form(spec)
# no signed permutation of the diagonal frame fixes a bump on x0 x23^2
form.terms = tuple((m, c + 1 if m == (0, 23, 23) else c) for m, c in form.terms)
rep = run_suite(RunConfig(k=2, delta=8, suite="symmetric", trials=3, seed=7))
for c in rep.checks[:4]:
    print(c.id, c.status, (c.witness or {}).get("error", "").split(":")[0])
"""


def test_varying_norm_ratio_is_a_fail():
    # a sampled similarity whose norm ratio varies refutes the claim; it must
    # not be drawn again until a sample happens to fit the corrupted Q
    out = run_script(SEEDED_NORM)
    assert out == [word for check_id in (
        "permutation-similarity", "automorphism-trichotomy",
        "structural-norm-factor", "composite-similarity")
        for word in (check_id, "fail", "SimilarityViolation")]


def test_bracketing_words_reads_the_patched_name(monkeypatch):
    # the traced benchmark counts cubic.bracketing_residual by replacing the
    # name in every module that bound it, runner included
    import jordal.runner as runner

    calls = []
    honest = runner.bracketing_residual
    monkeypatch.setattr(runner, "bracketing_residual",
                        lambda *args, **kw: calls.append(1) or honest(*args, **kw))
    rep = run_suite(RunConfig(k=2, delta=1, suite="severi", trials=2))
    assert rep.ok and len(calls) == 2


def test_crash_in_check_code_stops_the_run(monkeypatch):
    # a TypeError is a bug in the program, not a counterexample: it must
    # propagate out of run_suite instead of being reported as `fail`
    import jordal.geometry as geometry

    def broken(fr, m, x):
        raise TypeError("broken tangent covector")

    monkeypatch.setattr(geometry, "tau_covector", broken)
    with pytest.raises(TypeError, match="broken tangent covector"):
        run_suite(RunConfig(k=2, delta=1, suite="geometry", trials=2, seed=0))


def test_dimension_table():
    t = dimension_table(2, 1)
    assert t == {"k": 2, "delta": 1, "dim_v": 6, "n": 2,
                 "secant_projective_dims": [2, 4, 5]}
    t8 = dimension_table(2, 8)
    assert t8["dim_v"] == 27
    assert t8["n"] == 16
    assert t8["secant_projective_dims"] == [16, 25, 26]


def test_default_seed_env(monkeypatch):
    monkeypatch.delenv("JORDAL_SEED", raising=False)
    assert default_seed() == 0
    monkeypatch.setenv("JORDAL_SEED", "77")
    assert default_seed() == 77
    # the 64-bit range, both ends
    monkeypatch.setenv("JORDAL_SEED", str(2 ** 64 - 1))
    assert default_seed() == 18446744073709551615
    for raw in (str(2 ** 64), "-1"):
        monkeypatch.setenv("JORDAL_SEED", raw)
        with pytest.raises(InvalidConfig, match="64-bit range"):
            default_seed()


# --------------------------------------------------------------------------
# report objects and serializations


def sample_report():
    checks = [
        CheckResult("alpha", "x*y = y*x", PASS, 3, Fraction(1, 3),
                    witness={"value": Fraction(2, 7)}),
        CheckResult("beta", "Q(I) = 1", SKIP, 0),
    ]
    return VerificationReport({"k": 2, "delta": 1, "mode": "exact"}, checks)


def test_report_validation():
    with pytest.raises(ReportError):
        CheckResult("x", "a", "maybe", 1)
    with pytest.raises(ReportError, match="^bad status 'bogus'$"):
        CheckResult(id="x", paper_anchor="a", status="bogus", trials=1)
    # _replace goes through the constructor, so it cannot build a bad result
    done = CheckResult("x", "a", PASS, 1)._replace(status=FAIL, max_abs_error=2)
    assert done == CheckResult("x", "a", FAIL, 1, 2)
    with pytest.raises(ReportError, match="^bad status 'bogus'$"):
        CheckResult("x", "a", PASS, 1)._replace(status="bogus")
    with pytest.raises(ReportError):
        VerificationReport({}, [CheckResult("dup", "a", PASS, 1),
                                CheckResult("dup", "a", PASS, 1)])


def test_report_summary_and_ok():
    rep = sample_report()
    assert rep.summary == {"passed": 1, "failed": 0, "skipped": 1}
    assert rep.ok
    failing = VerificationReport({}, [CheckResult("x", "a", "fail", 1, 2.0)])
    assert not failing.ok
    assert failing.summary["failed"] == 1


def test_json_rendering():
    data = json.loads(render_json(sample_report()))
    # config is echoed with native types
    assert data["config"] == {"k": 2, "delta": 1, "mode": "exact"}
    alpha = data["checks"][0]
    # exact numbers serialize as strings so nothing is rounded
    assert alpha["max_abs_error"] == "1/3"
    assert alpha["witness"]["value"] == "2/7"
    # skipped checks have no error value at all
    assert data["checks"][1]["max_abs_error"] is None
    assert data["summary"] == {"passed": 1, "failed": 0, "skipped": 1}
    assert render_json(sample_report()).endswith(b"\n")


def test_json_float_mode_numbers():
    checks = [CheckResult("gamma", "f", PASS, 2, 1.5e-9)]
    rep = VerificationReport({"mode": "float"}, checks)
    data = json.loads(render_json(rep))
    assert data["checks"][0]["max_abs_error"] == 1.5e-9


def test_json_float_mode_keeps_counts_integral():
    # only Fractions become floats; counts, dimensions and trial numbers
    # stay integers
    checks = [CheckResult("delta", "f", FAIL, 2, 0.5,
                          witness={"trial": 0, "dims": [5, 8], "r": Fraction(1, 4),
                                   "err": 0.125})]
    data = json.loads(render_json(VerificationReport({"mode": "float"}, checks)))
    assert data["checks"][0]["witness"] == {"trial": 0, "dims": [5, 8],
                                            "r": 0.25, "err": 0.125}
    assert type(data["checks"][0]["witness"]["trial"]) is int
    rep = run_suite(RunConfig(k=2, delta=2, suite="geometry", trials=1, seed=7,
                              mode="float"))
    data = json.loads(render_json(rep))
    terracini = next(c for c in data["checks"] if c["id"] == "terracini-dimension")
    assert terracini["witness"]["l"] == [0, 1, 2]
    assert all(type(v) is int for v in terracini["witness"]["dims"])


def test_csv_rendering():
    body = render_csv(sample_report())
    lines = body.decode().split("\n")
    assert lines[0] == "id,paper_anchor,status,trials,max_abs_error"
    assert lines[1] == "alpha,x*y = y*x,pass,3,1/3"
    assert lines[2] == "beta,Q(I) = 1,skip,0,"
    # single check means exactly header + one row
    one = VerificationReport({}, [CheckResult("solo", "s", PASS, 1, 0)])
    rows = [ln for ln in render_csv(one).decode().split("\n") if ln]
    assert len(rows) == 2


def test_text_rendering():
    text = render_text(sample_report()).decode()
    assert "alpha" in text and "beta" in text
    assert "pass" in text and "skip" in text
    assert "passed" in text


def test_emit_report_dispatch():
    rep = sample_report()
    assert emit_report(rep, "json") == render_json(rep)
    assert emit_report(rep, "csv") == render_csv(rep)
    assert emit_report(rep, "text") == render_text(rep)
    with pytest.raises(ReportError):
        emit_report(rep, "xml")


def test_empty_check_list():
    rep = VerificationReport({"k": 2}, [])
    assert rep.summary == {"passed": 0, "failed": 0, "skipped": 0}
    assert rep.ok
    assert json.loads(render_json(rep))["checks"] == []


def test_report_written_to_disk(tmp_path):
    target = tmp_path / "out.json"
    rep = run_suite(RunConfig(k=2, delta=1, suite="algebra", trials=1, seed=0))
    write_report(rep, str(target), "json")
    assert target.read_bytes() == emit_report(rep, "json")
