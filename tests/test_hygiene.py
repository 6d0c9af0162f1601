"""Guards against regrowth of dead code and of checks that python -O empties.

Every module of the package except ``__init__.py`` (which re-exports names)
must use each name it imports, every module-level def or class must be used
by the library or exported by the package, and no library module may check
a claim with an ``assert`` statement, because ``python -O`` removes them.
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


def test_every_definition_is_used_or_exported():
    # a module-level def or class must be read by library code outside its
    # own body, or be exported by the package; otherwise it is a test helper
    # that belongs in tests/oracles.py
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in modules()}
    init = trees.pop("__init__.py")
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    found = []
    for name, tree in trees.items():
        for definition in tree.body:
            if (not isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                    or definition.name in exported):
                continue
            own = {id(n) for n in ast.walk(definition)}
            used = any(isinstance(n, ast.Name) and n.id == definition.name
                       and id(n) not in own
                       for other in trees.values() for n in ast.walk(other))
            if not used:
                found.append(f"{name}:{definition.lineno} {definition.name}")
    assert found == []
