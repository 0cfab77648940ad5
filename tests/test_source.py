"""The package holds no test-only code, and reads and writes files one way.

Every top-level function or class in ``src/h2blend`` must be named
somewhere in the package or in the benchmark (``perfbench/``), or be
exported through ``h2blend.__all__``.  Every method or property that is not
a dunder must be read there as an attribute (``x.name``); a local variable
or a dict key of the same name does not count.
Reference computations that only the tests use live in
``tests/reference_forms.py``.

JSON documents are read only by ``network.read_json``, and CSV files are
written only by ``solution.write_csv``.
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
    """(line, name, is_method) of each top-level function and class, and of
    each method that is not a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.lineno, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.lineno, item.name, True


def test_every_definition_has_a_caller():
    attributes = set()
    names = set(h2blend.__all__)
    for path in USERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = [f"{path.name}:{line} {name}" for path in PACKAGE
              for line, name, is_method in _definitions(_parse(path))
              if name not in attributes and (is_method or name not in names)]
    assert not unused, ("used in neither src/h2blend nor perfbench/, and not "
                        "exported: " + ", ".join(unused))


# (module, name) of each reader or writer, and the one function that may use it
SINGLE_PATHS = {("json", "load"): "read_json", ("json", "loads"): "read_json",
                ("csv", "writer"): "write_csv", ("csv", "DictWriter"): "write_csv"}


def _module_names(tree):
    """(line, enclosing function, module, name) of each ``module.name``
    reference and each ``from module import name``; the function is None
    at module level."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                yield child.lineno, function, child.value.id, child.attr
            elif isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    yield child.lineno, function, child.module, alias.name
            yield from visit(child, function)
    return visit(tree, None)


def test_json_read_and_csv_written_in_one_place():
    stray = [f"{path.name}:{line} {module}.{name} in {function}"
             for path in PACKAGE
             for line, function, module, name in _module_names(_parse(path))
             if (module, name) in SINGLE_PATHS
             and function != SINGLE_PATHS[module, name]]
    assert not stray, ("json.load(s) belongs in read_json and csv.writer in "
                       "write_csv only: " + ", ".join(stray))
