"""Guards against regrowth of dead code and of checks that python -O empties.

Every module of the package except ``__init__.py`` (which re-exports names)
must use each name it imports, every module-level def or class must be read
by library code (exporting it is not enough), and no library module may check
a claim with an ``assert`` statement, because ``python -O`` removes them.
A function outside a class reads each of its parameters unless the name
starts with ``_``, and every method or property a class defines is read by
attribute name somewhere in library code; the one exemption is ``_make``,
which namedtuple's own ``_replace`` calls, so that a named tuple with checks
in ``__new__`` runs them on ``_replace`` too.
No module may import ``threading`` or ``concurrent.futures``: the trials
hold the GIL, so worker threads bought no speed, only locks. No module may
import ``dataclasses``: it loads ``inspect``, ``ast`` and ``dis`` into every
run and generates its classes at start-up; value types are named tuples
(``tests/test_startup.py`` pins what a run loads).

Float mode lives behind one arithmetic backend, whose linear algebra is
``linalg``'s own: no library module may import numpy, and no check in
``runner.py`` may read an ``.exact`` attribute to pick a float-only route.
A failed claim raises a ValueError subclass, which the runner reports as
``fail``; ``raise AssertionError`` would stop the run instead, so the
library may not raise it.

Only ``linalg.py`` decides the number format (int numerators over one
denominator, or floats over 1), through ``over``, ``clear_row_denominators``
and ``combine``. No other library module may catch TypeError (the error
math.gcd raises on a float), read ``EXACT_TYPES``, or ask
``isinstance(x, float)`` to pick between exact and float arithmetic, nor
``isinstance(x, Fraction)`` (alone or in a tuple of types) to pick between
numerators and values; ``report.py`` may, since it only formats values for
output.

A name with a leading underscore is private to its module: no library
module may import one from another (``from .x import _name``), since that
grows a second route beside the module's public functions.

A trial draws again only from ``runner._run_one_trial``: it alone reads
``_RESAMPLE``, and no library ``except`` clause names a resample class, so no
second redraw loop can grow back around a sampler or a check body.

Coordinates are drawn in one place, ``rng.sample_coords``, which reads
getrandbits words itself: no library module calls ``randint``, so a report's
draws rest on MT19937's words and not on the standard library's ``randint``
code. Other draws (``randrange``, ``choice``, ``shuffle``) may stay.

Vectors cross every library boundary as (numerators, denominator) pairs:
an element is read as ``a.cleared``, so no library code calls ``coords()``
to compute with, and no frame keeps a ``unit_coords`` value tuple.
``coords()`` stays a view for ``jordan.py`` itself (grid, repr, comparison
by value) and for the jordan-violation witness, which reports values.

The traced benchmark (``perfbench/run.py --trace 1``) patches library
functions by name, so every name it patches must still resolve.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jordal"


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


def imported_modules(tree):
    """[(line, dotted module name)] of every import statement."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, node.module or ""))
    return found


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


def test_no_thread_machinery():
    banned = ("threading", "concurrent")
    found = []
    for path in modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line} {name}"
                     for line, name in imported_modules(tree)
                     if name.split(".")[0] in banned)
    assert found == []


def test_no_dataclasses():
    found = []
    for path in modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line} {name}"
                     for line, name in imported_modules(tree)
                     if name.split(".")[0] == "dataclasses")
    assert found == []


def test_no_numpy():
    found = []
    for path in modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line} {name}"
                     for line, name in imported_modules(tree)
                     if name.split(".")[0] == "numpy")
    assert found == []


def test_no_raised_assertion_errors():
    found = []
    for path in modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_checks_do_not_read_the_mode():
    # the scan covers the `_ck_` definitions and the registry, whose entries
    # may adapt a shared body with a lambda
    from jordal.runner import CHECKS

    tree = ast.parse((PACKAGE / "runner.py").read_text())
    scanned = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_ck_")
               or isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "CHECKS" for t in node.targets)]
    found = [f"runner.py:{node.lineno}" for top in scanned
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr == "exact"]
    assert found == []
    # so every check body is one of the scanned definitions, or built by one
    assert [c.id for c in CHECKS if not c.run.__qualname__.startswith("_ck_")] == []


def test_every_definition_is_used():
    # a module-level def or class must be read by library code outside its
    # own body; exporting it from the package is not enough, since a name
    # that only tests read is a test helper that belongs in tests/oracles.py
    trees = library_trees()
    reads = Counter()
    for tree in trees.values():
        reads.update(name_reads(tree))
    found = []
    for name, tree in trees.items():
        module = name[:-len(".py")]
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = name_reads(definition)
            # read by name, or through its module as in linalg.exact_rank
            if all(reads[key] == own[key]
                   for key in (definition.name, (module, definition.name))):
                found.append(f"{name}:{definition.lineno} {definition.name}")
    assert found == []


def name_reads(tree):
    """Counter of the reads below tree: ``name`` keyed by the name, and
    ``module.attr`` keyed by (module, attr)."""
    return Counter(n.id if isinstance(n, ast.Name) else (n.value.id, n.attr)
                   for n in ast.walk(tree)
                   if isinstance(n, ast.Name) or isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name))


def library_trees():
    """{file name: ast} of every module but ``__init__.py``."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in modules()}
    del trees["__init__.py"]
    return trees


def functions_outside_classes(node):
    """Every def and lambda below node, skipping class bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            continue
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            yield child
        yield from functions_outside_classes(child)


def test_every_parameter_is_read():
    # a parameter no body reads is one every caller passes for nothing;
    # a leading underscore marks one a fixed calling convention requires
    found = []
    for name, tree in library_trees().items():
        for fn in functions_outside_classes(tree):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.extend(f"{name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({p.arg})"
                         for p in params
                         if not p.arg.startswith("_") and p.arg not in read)
    assert found == []


def test_every_method_is_used():
    # a method or property only tests call belongs in tests/oracles.py;
    # _make is read by namedtuple's _replace, outside the library
    trees = library_trees()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)} | {"_make"}
    found = [f"{name}:{d.lineno} {cls.name}.{d.name}"
             for name, tree in trees.items()
             for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for d in cls.body if isinstance(d, ast.FunctionDef)
             and not (d.name.startswith("__") and d.name.endswith("__"))
             and d.name not in read]
    assert found == []


def test_no_private_imports_across_modules():
    found = []
    for path in modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno} {alias.name}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level
                     for alias in node.names if alias.name.startswith("_"))
    assert found == []


def test_one_place_draws_again():
    from jordal.runner import _RESAMPLE

    resample = {cls.__name__ for cls in _RESAMPLE}
    reads, catches = [], []
    for name, tree in library_trees().items():
        for top in tree.body:
            if name == "runner.py" and getattr(top, "name", None) == "_run_one_trial":
                continue
            reads.extend(f"{name}:{n.lineno}" for n in ast.walk(top)
                         if isinstance(n, ast.Name) and n.id == "_RESAMPLE"
                         and isinstance(n.ctx, ast.Load))
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                # by name, or through its module as in geometry.SingularConfiguration
                catches.extend(f"{name}:{handler.lineno}"
                               for n in ast.walk(handler.type)
                               if getattr(n, "id", None) in resample
                               or getattr(n, "attr", None) in resample)
    assert reads == []
    assert catches == []


def test_number_format_decided_in_linalg():
    found = []
    for name, tree in library_trees().items():
        if name == "linalg.py":
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.ExceptHandler) and n.type is not None:
                found.extend(f"{name}:{n.lineno} except TypeError"
                             for t in ast.walk(n.type)
                             if getattr(t, "id", None) == "TypeError")
            elif (isinstance(n, ast.Name) and n.id == "EXACT_TYPES"
                  or isinstance(n, ast.Attribute) and n.attr == "EXACT_TYPES"):
                found.append(f"{name}:{n.lineno} EXACT_TYPES")
            elif (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
                  and len(n.args) == 2):
                kind = n.args[1]
                kinds = {getattr(t, "id", None) or getattr(t, "attr", None)
                         for t in getattr(kind, "elts", [kind])}
                if getattr(kind, "id", None) == "float":
                    found.append(f"{name}:{n.lineno} isinstance(..., float)")
                elif "Fraction" in kinds and name != "report.py":
                    found.append(f"{name}:{n.lineno} isinstance(..., Fraction)")
    assert found == []


def test_coordinates_drawn_in_rng():
    found = []
    for path in modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                     if isinstance(n, ast.Call)
                     and getattr(n.func, "attr", None) == "randint")
    assert found == []


def test_elements_cross_as_pairs():
    found = []
    for name, tree in library_trees().items():
        if name == "jordan.py":
            continue
        for top in tree.body:
            if name == "runner.py" and getattr(top, "name", None) == "_ck_jordan_violation":
                continue
            for n in ast.walk(top):
                if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "coords"):
                    found.append(f"{name}:{n.lineno} .coords()")
                elif isinstance(n, ast.Attribute) and n.attr == "unit_coords":
                    found.append(f"{name}:{n.lineno} unit_coords")
    assert found == []


def traced_functions():
    """[(module, attribute path)] of the FUNCTIONS table in perfbench/layers.py.

    The table is read with ast, because importing layers.py needs the
    benchmark's own tracer module on the path.
    """
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets))
    return [(module, path) for _, module, path in ast.literal_eval(table)]


def test_traced_names_resolve():
    names = traced_functions()
    assert names
    # patched outside the table by perfbench/layers.py::install
    names += [("reconstruction", "NormFrame._build_gram"),
              ("runner", "_run_one_trial"), ("runner", "_run_check"),
              ("polarization", "PolarizedForm.__call__"),
              ("jordan", "norm_form"), ("report", "emit_report")]
    missing = []
    for module, path in names:
        obj = importlib.import_module(f"jordal.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert missing == []
    # the traced run wraps _run_check as lambda env, check, threads
    from jordal.runner import _run_check
    assert len(inspect.signature(_run_check).parameters) == 3
    # it also wraps the norm form's func and reads NormFrame._gram
    from jordal.jordan import JordanSpec, norm_form
    from jordal.reconstruction import NormFrame
    spec = JordanSpec(2, 1)
    assert callable(norm_form(spec).func)
    assert NormFrame(spec)._gram is None
