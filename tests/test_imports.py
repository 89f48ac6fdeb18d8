"""Every imported name is used, and every public name and every option
has a caller outside the tests: AST scans of the package, the tests and
the bench.

A name bound by ``import`` or ``from ... import`` must be read somewhere
in its module.  Re-exports are exempt: the package's ``__init__.py``,
and an import line marked ``# noqa: F401`` (``graphs`` re-exports
``dataclasses.replace``).

A public function or class of the package must be read somewhere in
``src/`` or ``bench/``: as an attribute of a name bound to its module,
by a ``from`` import out of its module, or inside its module by a name
that no enclosing function binds for itself.  A public method must be
read as an attribute of any name.  Code that only the tests call
belongs in the tests.

A defaulted parameter of a module-level function or method of the
package (constructors and other dunder methods aside) must be passed,
by position or keyword, by some call in ``src/`` or ``bench/`` that can
reach it: a method by its name as an attribute, a function through its
module, as public names are read.  A call that only forwards a
defaulted parameter of its own caller counts once that parameter is
itself passed, and ``**kwargs`` forwarding counts not at all: a value
only the tests set is a constant, and a test that needs another one
monkeypatches it.
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


def public_definitions(tree):
    """(qualified name, name) of each public module-level function and
    class of ``tree``, and of each public method of its classes."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{sub.name}", sub.name) for sub in node.body
                       if isinstance(sub, ast.FunctionDef)
                       and not sub.name.startswith("_"))
    return out


SCOPES = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def local_names(scope):
    """Names a function, lambda or comprehension binds for itself."""
    names, declared = set(), set()
    if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
        a = scope.args
        names |= {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        names |= {p.arg for p in (a.vararg, a.kwarg) if p}
        todo = scope.body if isinstance(scope.body, list) else [scope.body]
    else:
        todo = [g.target for g in scope.generators]
    todo = list(todo)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        elif isinstance(node, SCOPES):
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names - declared


def global_reads(tree):
    """Names that loads in ``tree`` resolve in its module scope."""
    reads = set()

    def visit(node, shadowed):
        if isinstance(node, ast.FunctionDef):
            for outer in node.decorator_list + node.args.defaults + [
                    d for d in node.args.kw_defaults if d is not None]:
                visit(outer, shadowed)
            shadowed = shadowed | local_names(node)
            for child in node.body:
                visit(child, shadowed)
            return
        if isinstance(node, SCOPES):
            shadowed = shadowed | local_names(node)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id not in shadowed):
            reads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return reads


def package_module(node):
    """Module of the package that a ``from`` import takes names from."""
    if node.level == 1 and node.module:
        return node.module
    if node.module and node.module.startswith("mrparse."):
        return node.module[len("mrparse."):]
    return None


def module_aliases(tree):
    """{name: module} of each name ``tree`` binds to a package module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 and not node.module or node.module == "mrparse"):
            out.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            out.update((a.asname, a.name[len("mrparse."):]) for a in node.names
                       if a.asname and a.name.startswith("mrparse."))
    return out


def unread_public_names(sources, scope):
    """Qualified names of the public definitions of the modules ``scope``
    that no source of ``sources`` ({module: text}) reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    attrs, qualified = set(), set()
    for module, tree in trees.items():
        aliases = module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    qualified.add(f"{aliases[node.value.id]}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and package_module(node):
                qualified |= {f"{package_module(node)}.{a.name}" for a in node.names}
        qualified |= {f"{module}.{name}" for name in global_reads(tree)}
    return sorted(f"{module}.{qual}" for module in scope
                  for qual, name in public_definitions(trees[module])
                  if (name not in attrs if "." in qual
                      else f"{module}.{name}" not in qualified))


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE + BENCH}
    unread = unread_public_names(sources, [p.stem for p in PACKAGE])
    assert sorted(set(unread) - CALLED_BY_LIBRARIES) == []


def test_scan_flags_an_unread_public_name():
    sources = {
        "a": ("def used():\n    pass\n\ndef dead():\n    pass\n\n"
              "def shadowed():\n    pass\n\ndef imported():\n    pass\n\n"
              "def via_alias():\n    pass\n\n"
              "class K:\n    def m(self):\n        used()\n"
              "    def _private(self):\n        pass\n\n"
              "def f(shadowed):\n    return [dead for dead in shadowed]\n"),
        "b": ("from .a import imported\nfrom . import a as x\n"
              "import numpy as np\n\nimported(x.via_alias, x.f, np.dead)\n"),
    }
    assert unread_public_names(sources, ["a"]) == \
        ["a.K", "a.K.m", "a.dead", "a.shadowed"]


def defaulted(fn):
    """{parameter: position a call passes it at, or None when only by
    keyword} of each defaulted parameter of ``fn``, ``self`` or ``cls``
    not counted."""
    a = fn.args
    pos = a.posonlyargs + a.args
    if pos and pos[0].arg in ("self", "cls"):
        pos = pos[1:]
    out = {p.arg: k for k, p in enumerate(pos) if k >= len(pos) - len(a.defaults)}
    out.update((p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None)
    return out


def functions_and_calls(tree, module):
    """The functions of ``tree`` as (qualified name, def, module-level
    function or method, method), and its calls as (call, enclosing defs
    innermost first, ``module``)."""
    defs, calls = [], []

    def visit(node, prefix, enclosing, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                qual = f"{prefix}{child.name}"
                defs.append((qual, child, top, isinstance(node, ast.ClassDef)))
                visit(child, f"{qual}.", (child,) + enclosing, False)
                continue
            if isinstance(child, ast.Call):
                calls.append((child, enclosing, module))
            sub = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
            visit(child, sub, enclosing, top)

    visit(tree, f"{module}.", (), True)
    return defs, calls


def reaches(call, module, qual, top, method, bound):
    """Whether ``call``, made in ``module``, can call the function
    ``qual``: a method as an attribute of any name; any other function
    by its bare name inside its module; a module-level function also
    as an imported name or an attribute of its module.  ``bound`` maps
    each module to its (module aliases, names imported from modules)."""
    home = qual.split(".")[0]
    aliases, imported = bound[module]
    if isinstance(call.func, ast.Attribute):
        target = call.func.value
        return method or top and isinstance(target, ast.Name) and \
            aliases.get(target.id) == home
    return not method and (module == home
                           or top and imported.get(call.func.id) == home)


def passed_value(call, name, position):
    """The expression ``call`` passes for parameter ``name``, or None."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    args = call.args
    if position is not None and position < len(args) and not any(
            isinstance(a, ast.Starred) for a in args[:position + 1]):
        return args[position]
    return None


def is_dunder(fn):
    return fn.name.startswith("__") and fn.name.endswith("__")


def unset_options(sources, scope):
    """"module.function(parameter)" of each defaulted parameter of a
    module-level function or method of the modules ``scope`` that no
    call in ``sources`` ({module: text}) sets."""
    defs, calls, bound = [], [], {}
    for module, text in sources.items():
        tree = ast.parse(text)
        more_defs, more_calls = functions_and_calls(tree, module)
        defs += more_defs
        calls += more_calls
        bound[module] = (module_aliases(tree), {
            a.asname or a.name: package_module(node) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names})
    by_name = {}
    for qual, fn, top, method in defs:
        by_name.setdefault(fn.name, []).append((qual, fn, top, method))
    qual_of = {fn: qual for qual, fn, _, _ in defs}
    live, needs = set(), {}  # needs: option -> the options it forwards
    for call, enclosing, module in calls:
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        for qual, fn, top, method in by_name.get(name, ()):
            if not reaches(call, module, qual, top, method, bound):
                continue
            for param, position in defaulted(fn).items():
                value = passed_value(call, param, position)
                if value is None:
                    continue
                option = f"{qual}({param})"
                owner = isinstance(value, ast.Name) and next(
                    (f for f in enclosing if value.id in local_names(f)), None)
                if owner and not is_dunder(owner) and value.id in defaulted(owner):
                    needs.setdefault(option, set()).add(
                        f"{qual_of[owner]}({value.id})")
                else:
                    live.add(option)
    grown = True
    while grown:
        grown = False
        for option, forwarded in needs.items():
            if option not in live and forwarded & live:
                live.add(option)
                grown = True
    return sorted(f"{qual}({param})" for qual, fn, top, _ in defs
                  if top and not is_dunder(fn) and qual.split(".")[0] in scope
                  for param in defaulted(fn) if f"{qual}({param})" not in live)


def test_every_option_has_a_caller_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE + BENCH}
    assert unset_options(sources, {p.stem for p in PACKAGE}) == []


def test_scan_flags_an_unset_option():
    sources = {"a": (
        "def leaf(x, plain=1, unset=2, chained=3, via_kwargs=4, from_init=5,\n"
        "         nested=6):\n    pass\n\n"
        "def middle(x, chained=3, forwarded=5):\n"
        "    leaf(x, chained=chained)\n    leaf(x, forwarded)\n\n"
        "def outer(x, **kw):\n    middle(x, forwarded=7)\n    leaf(x, **kw)\n\n"
        "def wrapper(x):\n    def inner(y, opt=1):\n"
        "        leaf(y, nested=opt)\n    return inner\n\n"
        "class K:\n    def __init__(self, width=1):\n"
        "        leaf(0, from_init=width)\n"
        "    def step(self, cap=None):\n        pass\n"
        "    def run(self):\n        self.step(3)\n"),
        "b": ("from . import a\n\ndef step(cap=None):\n    pass\n\n"
              "def go():\n    a.leaf(0, unset=1)\n")}
    assert unset_options(sources, {"a", "b"}) == [
        "a.leaf(chained)", "a.leaf(nested)", "a.leaf(via_kwargs)",
        "a.middle(chained)", "b.step(cap)"]
