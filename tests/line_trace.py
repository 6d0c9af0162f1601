"""Print each library statement that ``pytest tests`` never executes.

Run from the repository root, with any extra pytest arguments after it:

    PYTHONPATH=src python tests/line_trace.py

It runs the test suite in this process under ``sys.settrace``, recording the
lines that run in ``src/jordal``, then prints ``file:line: statement`` for
every statement start that has bytecode and never ran, and their count. It
needs only the standard library besides pytest, and takes about two minutes
where the suite takes half of one. The trace does not follow child
processes, so a statement that only a subprocess runs (the command line
behind the golden reports, say) is listed too. The exit status is pytest's.

The file name keeps pytest from collecting it.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jordal"


def statements(path: Path) -> list:
    """The lines of path where a statement starts and bytecode runs: the
    lines a trace can see, without a docstring's or a continued line's."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return sorted(starts & lines)


def traced_run(args) -> tuple:
    """(pytest's exit status, {library path: the line numbers that ran})."""
    seen = {path: set() for path in PACKAGE.glob("*.py")}
    by_name = {}  # co_filename -> its line set, or None outside the library

    def lines_of(code):
        name = code.co_filename
        if name not in by_name:
            by_name[name] = seen.get(Path(name).resolve())
        return by_name[name]

    def on_call(frame, event, arg):
        ran = lines_of(frame.f_code)
        if ran is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, seen


def main(argv) -> int:
    status, seen = traced_run(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                               *argv])
    missed = 0
    for path in sorted(seen):
        text = path.read_text().splitlines()
        for line in statements(path):
            if line not in seen[path]:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} library statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
