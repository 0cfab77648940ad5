"""The package holds no test-only code.

Every top-level function or class in ``src/h2blend`` and every method
that is not a dunder must be named somewhere in the package or in the
benchmark (``perfbench/``), or be exported through ``h2blend.__all__``.
Reference computations that only the tests use live in
``tests/reference_forms.py``.
"""

import ast
from pathlib import Path

import h2blend

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "h2blend").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """(line, name) of each top-level function and class, and of each
    method that is not a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.lineno, item.name


def test_every_definition_has_a_caller():
    referenced = set(h2blend.__all__)
    for path in USERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [f"{path.name}:{line} {name}" for path in PACKAGE
              for line, name in _definitions(_parse(path)) if name not in referenced]
    assert not unused, ("used in neither src/h2blend nor perfbench/, and not "
                        "exported: " + ", ".join(unused))
