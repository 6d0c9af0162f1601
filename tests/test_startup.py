"""Start-up budget: what a `jordal verify` process loads before its checks run.

Interpreter start plus imports is most of a short verification, so the
standard modules a run does not need stay out of it: importing the command
line and building the (2,8) frame with its inverse Gram matrix must not
load ``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``), ``csv`` (imported by CSV output alone) or ``numpy``. The
child process compares against its own ``sys.modules`` at its start, so a
site hook that preloads one of them does not fail the test.

A library user who only builds a frame pays for less: the package namespace
resolves each name on first use, so ``from jordal import JordanSpec, frame``
and the (2,8) frame's inverse Gram matrix load neither the checks
(``runner`` with ``geometry``, ``symmetry`` and ``cubic``), the report writer
with ``json``, nor the command line with ``argparse``. Every public name still
resolves to its module's object, and to a patched one while it is patched.

Float mode needs no numpy either: its linear algebra is ``linalg``'s own, so
float runs of the suites that take ranks, solves and determinants finish with
numpy made unimportable.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jordal

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

FRAME_CHILD = """
import sys
before = set(sys.modules)
from jordal import JordanSpec, frame
frame(JordanSpec(2, 8)).gram_inv
added = sorted(set(sys.modules) - before)
import json
print(json.dumps(added))
"""

NOT_FOR_A_FRAME = ("jordal.runner", "jordal.report", "jordal.cli", "jordal.geometry",
                   "jordal.symmetry", "jordal.cubic", "json", "argparse")

# a None entry in sys.modules makes `import numpy` raise ImportError
FLOAT_CHILD = """
import sys
sys.modules["numpy"] = None
before = set(sys.modules)
from jordal.runner import RunConfig, run_suite
for suite in ("geometry", "mccrimmon"):
    run_suite(RunConfig(k=2, delta=1, suite=suite, trials=1, seed=3, mode="float"))
added = sorted(set(sys.modules) - before)
import json
print(json.dumps(added))
"""


def modules_added_by_a_run(child=CHILD):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_loads_no_unneeded_module():
    added = modules_added_by_a_run()
    assert "jordal.cli" in added
    assert [m for m in added if m.split(".")[0] in UNNEEDED] == []


def test_float_mode_runs_without_numpy():
    added = modules_added_by_a_run(FLOAT_CHILD)
    assert "jordal.linalg" in added
    assert [m for m in added if m.split(".")[0] == "numpy"] == []


def test_frame_loads_no_check_report_or_cli_module():
    added = modules_added_by_a_run(FRAME_CHILD)
    assert "jordal.reconstruction" in added
    assert [m for m in added if any(m == name or m.startswith(name + ".")
                                    for name in NOT_FOR_A_FRAME)] == []


def test_public_names_resolve_to_their_modules():
    for name in jordal.__all__:
        if name == "__version__":
            continue
        obj = getattr(jordal, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("jordal."), name
        assert getattr(module, name) is obj, name
    star = {}
    exec("from jordal import *", star)
    assert set(jordal.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        jordal.no_such_name


def test_package_returns_a_patched_name(monkeypatch):
    from jordal import reconstruction

    def patched(spec):
        return spec
    monkeypatch.setattr(reconstruction, "frame", patched)
    assert jordal.frame is patched
    monkeypatch.undo()
    assert jordal.frame is reconstruction.frame
