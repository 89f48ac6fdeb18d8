"""Every imported name is used: an AST scan of the package and the tests.

A name bound by ``import`` or ``from ... import`` must be read somewhere
in its module.  Re-exports are exempt: the package's ``__init__.py``,
and an import line marked ``# noqa: F401`` (``graphs`` re-exports
``dataclasses.replace``).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "mrparse").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


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
