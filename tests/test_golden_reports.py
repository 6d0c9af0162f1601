"""Golden exact-mode reports: the sha256 of each pinned configuration.

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

# the three benchmark configurations, then two shapes no benchmark workload
# runs: delta = 1 and a degree-5 norm; last, the geometry and symmetric
# suites on a degree-4 norm
GOLDEN = [
    (["--k", "2", "--delta", "8", "--suite", "all", "--trials", "1", "--seed", "42"],
     "9e66531178d525c653e8e07330079336ccf726fb505baa5326d177d372a11445", 8728),
    (["--k", "3", "--delta", "8", "--suite", "all", "--trials", "1", "--seed", "42"],
     "303c979b866d7c48c39a6ea1341e0c1652ab1742afc41db18708e2d015fe97f8", 10209),
    (["--k", "3", "--delta", "4", "--suite", "algebra", "--trials", "200",
      "--seed", "42"],
     "447d844b6c20e8a4bd8d37e4e31689a0573f1b054f42a862ac67bda176fca301", 1145),
    (["--k", "2", "--delta", "1", "--suite", "all", "--trials", "3", "--seed", "7"],
     "fd35922fe32991b791859a04031896ee8f5c667ddc9e96ecdf2654e494c6ad80", 8721),
    (["--k", "4", "--delta", "1", "--suite", "all", "--trials", "3", "--seed", "7"],
     "caac9b072b97aabbc8b7b8ab0be0c49ebbb20e0ac2415d6de8427bdc819c9618", 8784),
    (["--k", "3", "--delta", "4", "--suite", "all", "--trials", "3", "--seed", "7"],
     "bce1f7be541c4dfb52a243a659b6e8811332264574301b7377345041620b6f7a", 8741),
]


@pytest.mark.parametrize("args,sha256,size", GOLDEN,
                         ids=["k2-d8-all", "k3-d8-all", "k3-d4-algebra",
                              "k2-d1-all", "k4-d1-all", "k3-d4-all"])
def test_exact_report_matches_golden_hash(args, sha256, size):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "jordal.cli", "verify", *args,
         "--threads", "1", "--mode", "exact", "--format", "json"],
        capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    got = hashlib.sha256(proc.stdout).hexdigest()
    running = ".".join(map(str, sys.version_info[:3]))
    assert (got, len(proc.stdout)) == (sha256, size), (
        f"report for {' '.join(args)} changed: sha256 {got}, "
        f"{len(proc.stdout)} bytes; golden recorded under Python "
        f"{RECORDED_UNDER}, running {running}")
