"""Command line behavior: flags, output channels, exit codes."""

import json

import pytest

import jordal.cli as cli
from jordal.report import CheckResult, VerificationReport
from jordal.runner import RunConfig


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_output(capsys):
    code, out, err = run_cli(capsys, "dims", "--k", "2", "--delta", "1")
    assert code == 0
    assert "dim V = 6" in out
    assert "n = 2" in out
    assert "l=0: dim S^0 X = 2" in out
    assert "l=2: dim S^2 X = 5" in out
    assert err == ""


def test_verify_stdout_json(capsys):
    code, out, err = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                             "--suite", "algebra", "--trials", "1")
    assert code == 0
    data = json.loads(out)
    assert data["config"]["k"] == 2
    assert data["config"]["suite"] == "algebra"
    assert data["summary"]["failed"] == 0
    assert len(data["checks"]) == 5


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                           "--suite", "algebra", "--trials", "1",
                           "--format", "csv")
    assert code == 0
    lines = [ln for ln in out.split("\n") if ln]
    assert lines[0] == "id,paper_anchor,status,trials,max_abs_error"
    assert len(lines) == 6


def test_verify_report_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                           "--suite", "algebra", "--trials", "1",
                           "--report", str(target))
    assert code == 0
    assert f"report written to {target}" in out
    assert "passed=5" in out
    data = json.loads(target.read_text())
    assert data["summary"]["passed"] == 5


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_report_file_holds_the_stdout_bytes(capsys, tmp_path, fmt):
    argv = ("verify", "--k", "2", "--delta", "2", "--suite", "all",
            "--trials", "2", "--seed", "3", "--format", fmt)
    code, out, _ = run_cli(capsys, *argv)
    target = tmp_path / f"report.{fmt}"
    code_file, note, _ = run_cli(capsys, *argv, "--report", str(target))
    assert code == code_file == 0
    assert target.read_bytes() == out.encode("utf-8")
    assert note == (f"report written to {target} "
                    "(passed=40 failed=0 skipped=1)\n")


def test_unwritable_report_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                             "--suite", "algebra", "--trials", "1",
                             "--report", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid configuration: cannot write report to {target}: ")


def test_seed_precedence(capsys, monkeypatch):
    monkeypatch.setenv("JORDAL_SEED", "123")
    _, out, _ = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                        "--suite", "algebra", "--trials", "1")
    assert json.loads(out)["config"]["seed"] == 123
    _, out, _ = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                        "--suite", "algebra", "--trials", "1",
                        "--seed", "456")
    assert json.loads(out)["config"]["seed"] == 456
    monkeypatch.delenv("JORDAL_SEED")
    _, out, _ = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                        "--suite", "algebra", "--trials", "1")
    assert json.loads(out)["config"]["seed"] == 0


def test_invalid_configuration_exits_two(capsys):
    # negative suite only exists at the octonion 4x4 shape
    code, out, err = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                             "--suite", "negative")
    assert code == 2
    assert out == ""
    assert "invalid configuration" in err
    code, _, err = run_cli(capsys, "verify", "--k", "1", "--delta", "1")
    assert code == 2
    assert "invalid configuration" in err


@pytest.mark.parametrize("argv", [
    ("--k", "2", "--delta", "2", "--suite", "all", "--trials", "2", "--seed", "7",
     "--tol", "inf"),
    ("--k", "3", "--delta", "8", "--suite", "negative", "--trials", "3",
     "--seed", "7", "--tol", "1e300"),
])
def test_vacuous_tolerance_exits_two(capsys, argv):
    # a tolerance of 1 or more, or inf, would pass any float error
    code, out, err = run_cli(capsys, "verify", *argv, "--mode", "float")
    assert (code, out) == (2, "")
    assert "tol must be a number in (0, 1)" in err


def test_argparse_rejections_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--k", "2", "--delta", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--delta", "1"])  # --k is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--k", "2", "--delta", "1", "--format", "xml"])
    assert exc.value.code == 2


def test_failing_report_exits_one(capsys, monkeypatch):
    failing = VerificationReport(
        {"k": 2, "delta": 1}, [CheckResult("x", "a", "fail", 1, 1.0)])

    def fake_run_suite(config, threads=1):
        return failing

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--delta", "1")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 1


def test_threads_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                           "--suite", "algebra", "--trials", "2",
                           "--threads", "3")
    assert code == 0
    base = run_cli(capsys, "verify", "--k", "2", "--delta", "1",
                   "--suite", "algebra", "--trials", "2")[1]
    assert out == base


def test_negative_suite_via_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "3", "--delta", "8",
                           "--suite", "negative", "--trials", "5")
    assert code == 0
    data = json.loads(out)
    (check,) = data["checks"]
    assert check["status"] == "pass"
    assert check["witness"]["residual"] != "0"


@pytest.mark.parametrize("k,delta,passed", [(4, 1, 30), (2, 8, 40), (3, 4, 30),
                                             (3, 8, 11)])
def test_float_mode_quintic_passes(capsys, k, delta, passed):
    # norm-semisimilarity is ill-conditioned in floats at (4,1): with
    # --trials 10, seeds 1, 2 and 3 still fail (ROADMAP item 4). These three
    # trials must pass, as they do in exact mode; the other shapes pin the
    # float statuses of the cubic, quartic and octonion cases.
    code, out, _ = run_cli(capsys, "verify", "--k", str(k), "--delta", str(delta),
                           "--suite", "all", "--trials", "3", "--seed", "7",
                           "--mode", "float")
    data = json.loads(out)
    assert [c["id"] for c in data["checks"] if c["status"] == "fail"] == []
    assert data["summary"]["passed"] == passed
    assert code == 0
