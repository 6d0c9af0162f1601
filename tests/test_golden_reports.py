"""Golden exact-mode reports: the sha256 of each benchmark configuration.

Exact mode promises byte-identical reports, so a refactor that changes a
single byte of these reports changed a result or its rendering. The hashes
were recorded under Python 3.11.7; a mismatch on another Python version is
a cross-version drift of the report, which the project treats as a failure
too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

RECORDED_UNDER = "3.11.7"
SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN = [
    (["--k", "2", "--delta", "8", "--suite", "all", "--trials", "1"],
     "9e66531178d525c653e8e07330079336ccf726fb505baa5326d177d372a11445", 8728),
    (["--k", "3", "--delta", "8", "--suite", "all", "--trials", "1"],
     "303c979b866d7c48c39a6ea1341e0c1652ab1742afc41db18708e2d015fe97f8", 10209),
    (["--k", "3", "--delta", "4", "--suite", "algebra", "--trials", "200"],
     "447d844b6c20e8a4bd8d37e4e31689a0573f1b054f42a862ac67bda176fca301", 1145),
]


@pytest.mark.parametrize("args,sha256,size", GOLDEN,
                         ids=["k2-d8-all", "k3-d8-all", "k3-d4-algebra"])
def test_exact_report_matches_golden_hash(args, sha256, size):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "jordal.cli", "verify", *args, "--seed", "42",
         "--threads", "1", "--mode", "exact", "--format", "json"],
        capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    got = hashlib.sha256(proc.stdout).hexdigest()
    running = ".".join(map(str, sys.version_info[:3]))
    assert (got, len(proc.stdout)) == (sha256, size), (
        f"report for {' '.join(args)} changed: sha256 {got}, "
        f"{len(proc.stdout)} bytes; golden recorded under Python "
        f"{RECORDED_UNDER}, running {running}")
