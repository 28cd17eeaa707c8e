"""Every definition in the library has a caller that the system runs.

The scan reads the syntax trees of ``src/constellation_lab/`` (apart from
``__init__.py``, whose re-exports call nothing), ``scripts/`` and
``perfbench/``. Each top-level function or class, and each method whose name
is not a dunder, needs a reference in those files outside its own
definition:

- a function or class counts a bare name, a ``from ... import`` of it, or
  ``<module>.<name>`` with its own module;
- a method counts any attribute of its name.

What it cannot see: a method whose name another object shares passes when
only the other one is used. ``Nebula.k`` had no caller at all, and the scan
passed it on the ``.k`` of every other object. A call census, with
``sys.setprofile`` over the scripts and the benchmark's case lists, finds
those. Code that only tests call belongs in ``tests/oracles.py``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "constellation_lab"

# Definitions with no caller yet, each with the reason it stays.
EXCEPTIONS = {}


def _library_files():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _definitions(path):
    """(qualified name, the references that count, first line, last line) of
    each top-level function or class and each non-dunder method."""
    module = path.stem
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, functions + (ast.ClassDef,)):
            keys = [("name", node.name), ("qualified", (module, node.name))]
            yield f"{module}.{node.name}", keys, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    qualname = f"{module}.{node.name}.{item.name}"
                    yield qualname, [("attr", item.name)], item.lineno, item.end_lineno


def _references(path):
    """(kind, key, line) of each reference a file makes: a bare name or an
    imported one, a module-qualified name, and every attribute name."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append(("name", node.id, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend(("name", alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            out.append(("attr", node.attr, node.lineno))
            if isinstance(node.value, ast.Name):
                out.append(("qualified", (node.value.id, node.attr), node.lineno))
    return out


def uncalled_definitions():
    """Qualified names of the library definitions that nothing references."""
    sources = _library_files() + sorted((ROOT / "scripts").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    where = {}
    for path in sources:
        for ref_kind, key, line in _references(path):
            where.setdefault((ref_kind, key), []).append((path, line))
    missing = []
    for path in _library_files():
        for qualname, keys, first, last in _definitions(path):
            if not any(
                src != path or not first <= line <= last
                for key in keys
                for src, line in where.get(key, ())
            ):
                missing.append(qualname)
    return missing


def test_every_library_definition_has_a_caller_outside_tests():
    assert sorted(uncalled_definitions()) == sorted(EXCEPTIONS)
