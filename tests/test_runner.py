"""Check registry, suite execution, determinism, and the report formats."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from jordal.cubic import cubic_context
from jordal.jordan import JordanSpec, norm_form
from jordal.reconstruction import frame
from jordal.report import (
    PASS,
    SKIP,
    CheckResult,
    ReportError,
    VerificationReport,
    emit_report,
    render_csv,
    render_json,
    render_text,
)
from jordal.runner import (
    CHECKS,
    SUITES,
    InvalidConfig,
    RunConfig,
    checks_for,
    default_seed,
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
        dict(k=2, delta=1, suite="all", trials=1, seed=0, format="xml"),
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
    # the config echo carries only result-determining parameters, so runs
    # that differ in output path or format still compare byte for byte
    cfg = small_config(trials=2, seed=9)
    other = replace(cfg, report="/tmp/elsewhere.json", format="text")
    a = emit_report(run_suite(cfg), "json")
    b = emit_report(run_suite(other), "json")
    assert a == b
    echoed = json.loads(a)["config"]
    assert "report" not in echoed and "format" not in echoed
    assert echoed["seed"] == 9


def clear_shared_caches():
    for cached in (frame, norm_form, cubic_context):
        cached.cache_clear()


def test_cache_state_does_not_change_bytes():
    # cold caches, warm caches and a one-entry evaluation cache that evicts
    # on every miss must all give the same report bytes
    cfg = RunConfig(k=2, delta=2, suite="all", trials=2, seed=9)
    clear_shared_caches()
    try:
        cold = emit_report(run_suite(cfg), "json")
        warm = emit_report(run_suite(cfg), "json")
        form = frame(JordanSpec(2, 2)).form
        form.cache_size = 1
        form._cache.clear()
        before = form.evaluations
        evicting = emit_report(run_suite(cfg), "json")
        assert form.evaluations > before and len(form._cache) == 1
    finally:
        clear_shared_caches()
    assert cold == warm
    assert cold == evicting


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
    cov = honest(fr, m, x)
    return (cov[0] + 1,) + cov[1:]

geometry.tau_covector = corrupted
env = RunEnv(RunConfig(k=2, delta=1, suite="geometry", trials=2).validate())
check = next(c for c in CHECKS if c.id == "dual-point")
result = _run_check(env, check, 1)
print(result.status, (result.witness or {}).get("error", "").split(":")[0])
"""


def test_dual_point_fails_under_optimize_flag():
    # python -O strips assert statements; the dual-point claims must still
    # be tested, so a corrupted tangent covector has to fail the check
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_DUAL_POINT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fail", "DualityViolation"]


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
    cfg = RunConfig(k=2, delta=1, suite="algebra", trials=1, seed=0,
                    report=str(target))
    rep = run_suite(cfg)
    assert target.read_bytes() == emit_report(rep, "json")
