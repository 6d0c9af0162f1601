"""Guards against regrowth of dead code and of checks that python -O empties.

Every module of the package except ``__init__.py`` (which re-exports names)
must use each name it imports, and no library module may check a claim with
an ``assert`` statement, because ``python -O`` removes them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jordal"


def modules():
    return sorted(PACKAGE.glob("*.py"))


def unused_imports(tree):
    """[(line, name)] bound by an import and never loaded as a name."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend((node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, a.asname or a.name) for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_package_has_modules():
    names = {p.name for p in modules()}
    assert {"__init__.py", "jordan.py", "runner.py"} <= names


def test_no_unused_imports():
    found = []
    for path in modules():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line} {name}"
                     for line, name in unused_imports(tree))
    assert found == []


def test_no_assert_statements():
    found = []
    for path in modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
