"""Verification report assembly and byte-stable serialization.

Reports never contain timestamps, hostnames, or float formatting that could
vary between runs: two reports built from the same check results serialize
to identical bytes. In exact mode every measured number is emitted as a
string ("0", "5/3") so nothing is lost to binary floating point; in float
mode Fractions become JSON floats and counts stay integers.
"""

from __future__ import annotations

import io
import json
from collections import namedtuple
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

_STATUSES = (PASS, FAIL, SKIP)


class ReportError(ValueError):
    pass


class CheckResult(namedtuple("CheckResult", "id paper_anchor status trials "
                                              "max_abs_error witness")):
    """Outcome of one named check over its trials."""

    __slots__ = ()

    def __new__(cls, id: str, paper_anchor: str, status: str, trials: int,
                max_abs_error=None, witness=None):
        if status not in _STATUSES:
            raise ReportError(f"bad status {status!r}")
        return super().__new__(cls, id, paper_anchor, status, trials,
                               max_abs_error, witness)


class VerificationReport:
    def __init__(self, config: dict, checks=None):
        self.config = config
        self.checks = [] if checks is None else checks
        ids = [c.id for c in self.checks]
        if len(ids) != len(set(ids)):
            raise ReportError("duplicate check ids")

    @property
    def summary(self) -> dict:
        return {
            "passed": sum(1 for c in self.checks if c.status == PASS),
            "failed": sum(1 for c in self.checks if c.status == FAIL),
            "skipped": sum(1 for c in self.checks if c.status == SKIP),
        }

    @property
    def ok(self) -> bool:
        return self.summary["failed"] == 0


def _jsonable(value, exact: bool):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, Fraction) or exact and isinstance(value, int):
        return str(value) if exact else float(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v, exact) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, exact) for v in value]
    return str(value)


def _check_dict(c: CheckResult, exact: bool) -> dict:
    return {
        "id": c.id,
        "paper_anchor": c.paper_anchor,
        "status": c.status,
        "trials": c.trials,
        "max_abs_error": _jsonable(c.max_abs_error, exact),
        "witness": _jsonable(c.witness, exact),
    }


def render_json(report: VerificationReport) -> bytes:
    exact = report.config.get("mode", "exact") == "exact"
    doc = {
        "config": dict(report.config),
        "checks": [_check_dict(c, exact) for c in report.checks],
        "summary": report.summary,
    }
    text = json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=True)
    return (text + "\n").encode("utf-8")


def render_csv(report: VerificationReport) -> bytes:
    # imported here, so JSON and text runs never load csv
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "paper_anchor", "status", "trials", "max_abs_error"])
    # csv.writer writes None as "" and everything else, Fractions too, as str()
    for c in report.checks:
        writer.writerow([c.id, c.paper_anchor, c.status, c.trials, c.max_abs_error])
    return buf.getvalue().encode("utf-8")


def render_text(report: VerificationReport) -> bytes:
    cfg = report.config
    lines = [
        "jordal verification report",
        "config: k={k} delta={delta} suite={suite} trials={trials} "
        "seed={seed} mode={mode}".format(**{f: cfg.get(f) for f in
                                            ("k", "delta", "suite", "trials",
                                             "seed", "mode")}),
        "",
    ]
    width = max((len(c.id) for c in report.checks), default=4)
    for c in report.checks:
        err = "" if c.max_abs_error is None else f"  max_err={c.max_abs_error}"
        lines.append(f"{c.status.upper():<5} {c.id:<{width}} "
                     f"trials={c.trials}{err}")
    s = report.summary
    lines.append("")
    lines.append(f"passed={s['passed']} failed={s['failed']} "
                 f"skipped={s['skipped']}")
    return ("\n".join(lines) + "\n").encode("utf-8")


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def emit_report(report: VerificationReport, fmt: str = "json") -> bytes:
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ReportError(f"unknown format {fmt!r}; pick one of "
                          f"{sorted(_RENDERERS)}")
    return renderer(report)


def write_report(report: VerificationReport, path: str, fmt: str = "json") -> None:
    data = emit_report(report, fmt)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ReportError(f"cannot write report to {path}: {exc}") from exc
