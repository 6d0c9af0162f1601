"""Start-up budget: what a `jordal verify` process loads before its checks run.

Interpreter start plus imports is most of a short verification, so the
standard modules a run does not need stay out of it: importing the command
line and building the (2,8) frame with its inverse Gram matrix must not
load ``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``), ``csv`` (imported by CSV output alone) or ``numpy`` (imported
by float mode on first use). The child process compares against its own
``sys.modules`` at its start, so a site hook that preloads one of them does
not fail the test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

UNNEEDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "numpy")

CHILD = """
import sys
before = set(sys.modules)
import jordal.cli
from jordal.jordan import JordanSpec
from jordal.reconstruction import frame
frame(JordanSpec(2, 8)).gram_inv
added = sorted(set(sys.modules) - before)
import json
print(json.dumps(added))
"""


def modules_added_by_a_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_loads_no_unneeded_module():
    added = modules_added_by_a_run()
    assert "jordal.cli" in added
    assert [m for m in added if m.split(".")[0] in UNNEEDED] == []
