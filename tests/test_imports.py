"""Every imported name is used, and every public name has a caller
outside the tests: AST scans of the package, the tests and the bench.

A name bound by ``import`` or ``from ... import`` must be read somewhere
in its module.  Re-exports are exempt: the package's ``__init__.py``,
and an import line marked ``# noqa: F401`` (``graphs`` re-exports
``dataclasses.replace``).

A public function, class or method of the package must be read by name
somewhere in ``src/`` or ``bench/``: code that only the tests call
belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mrparse").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# argparse calls it; no file names it
CALLED_BY_LIBRARIES = {"cli._Parser.error"}


def unused_imports(source):
    """(line, name) of each name bound by an import statement of
    ``source`` that no expression reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1] or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            if alias.name != "*":
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_name():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
           "from e import f  # noqa: F401\nnp.zeros(c)\n")
    assert unused_imports(src) == [(1, "os"), (3, "d")]


def public_definitions(source):
    """(qualified name, name) of each public module-level function and
    class of ``source``, and of each public method of its classes."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{sub.name}", sub.name) for sub in node.body
                       if isinstance(sub, ast.FunctionDef)
                       and not sub.name.startswith("_"))
    return out


def read_names(source):
    """Every name an expression of ``source`` reads, bare or as an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    read = set().union(*(read_names(p.read_text(encoding="utf-8"))
                         for p in PACKAGE + BENCH))
    unread = [f"{p.stem}.{qual}" for p in PACKAGE
              for qual, name in public_definitions(p.read_text(encoding="utf-8"))
              if name not in read]
    assert sorted(set(unread) - CALLED_BY_LIBRARIES) == []


def test_scan_flags_an_unread_public_name():
    src = ("def used():\n    pass\n\ndef dead():\n    pass\n\n"
           "class K:\n    def m(self):\n        used()\n"
           "    def _private(self):\n        pass\n")
    read = read_names(src)
    assert [q for q, name in public_definitions(src) if name not in read] == \
        ["dead", "K", "K.m"]
