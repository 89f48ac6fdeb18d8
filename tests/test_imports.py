"""Every imported name is used, and every public name, every option and
every dataclass field has a reader outside the tests: AST scans of the
package, the tests and the bench.

A name bound by ``import`` or ``from ... import`` must be read somewhere
in its module.  Re-exports are exempt: the package's ``__init__.py``,
and an import line marked ``# noqa: F401`` (``graphs`` re-exports
``dataclasses.replace``).

A public function, class or module-level constant of the package must
be read somewhere in ``src/`` or ``bench/``: as an attribute of a name
bound to its module, by a ``from`` import out of its module, or inside
its module by a name that no enclosing function binds for itself.  A
public method must be read as an attribute of any name; a public
classmethod or staticmethod only through its class: ``Class.m`` outside
the class, ``cls.m`` or ``self.m`` inside it.  Code that only the tests
call belongs in the tests.

A defaulted parameter of a module-level function, a method or a
constructor (``__init__``; other dunder methods aside) of the package
must be passed, by position or keyword, by some call in ``src/`` or
``bench/`` that can reach it: a method by its name as an attribute, a
function through its module, as public names are read; a constructor
through its class's name, or as ``cls(...)`` in one of the class's
classmethods.  A call that only forwards a defaulted parameter of its
own caller counts once that parameter is itself passed, and
``**kwargs`` forwarding counts not at all: a value only the tests set
is a constant, and a test that needs another one monkeypatches it.

A field of a dataclass of the package must be read as an attribute
somewhere in ``src/`` or ``bench/``: of any name, except that a
method's ``self.<name>`` (or ``cls.<name>``) reads its own class's
attribute, and so does ``k.<name>`` where the function binds ``k``
only to ``K(...)`` calls of one class: that attribute is the field only
in the dataclass and the classes derived from it.  A result field that only the tests read is work done
for the tests.
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


def is_classlevel(fn):
    """Whether ``fn`` is a classmethod or staticmethod."""
    return any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
               for d in fn.decorator_list)


def public_definitions(tree):
    """(qualified name, name, classmethod or staticmethod) of each public
    module-level function, class and constant of ``tree``, and of each
    public method of its classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((n.id, n.id, False) for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name) and not n.id.startswith("_"))
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node.name, False))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{sub.name}", sub.name, is_classlevel(sub))
                       for sub in node.body if isinstance(sub, ast.FunctionDef)
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


def imported_names(tree):
    """{name: "module.original name"} of each name ``tree`` imports out
    of a package module."""
    return {a.asname or a.name: f"{package_module(node)}.{a.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and package_module(node)
            for a in node.names}


def module_names(tree, module):
    """(module aliases, imported names, "module.Class" of each
    module-level class) of ``tree``, the names a reference resolves
    through."""
    return (module_aliases(tree), imported_names(tree),
            {n.name: f"{module}.{n.name}" for n in tree.body
             if isinstance(n, ast.ClassDef)})


def class_home(target, names):
    """"module.Class" of the package that the expression ``target``
    names through its module, or None; ``names`` is
    :func:`module_names` of the module it is in."""
    aliases, imported, classes = names
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        home = aliases.get(target.value.id)
        return home and f"{home}.{target.attr}"
    if isinstance(target, ast.Name):
        return classes.get(target.id) or imported.get(target.id)
    return None


def class_reads(tree, module):
    """"module.Class.attr" of each attribute ``tree`` reads through a
    class: ``Class.attr`` anywhere, ``cls.attr`` or ``self.attr`` inside
    the class."""
    names = module_names(tree, module)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            home = class_home(node.value, names)
            if home:
                reads.add(f"{home}.{node.attr}")
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            reads |= {f"{module}.{cls.name}.{node.attr}" for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in ("cls", "self")}
    return reads


def unread_public_names(sources, scope):
    """Qualified names of the public definitions of the modules ``scope``
    that no source of ``sources`` ({module: text}) reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    attrs, qualified, through_class = set(), set(), set()
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
        through_class |= class_reads(tree, module)

    def read(module, qual, name, classlevel):
        if classlevel:
            return f"{module}.{qual}" in through_class
        return name in attrs if "." in qual else f"{module}.{name}" in qualified

    return sorted(f"{module}.{qual}" for module in scope
                  for qual, name, classlevel in public_definitions(trees[module])
                  if not read(module, qual, name, classlevel))


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


def test_scan_flags_an_unread_constant():
    sources = {
        "a": ("USED = 1\nIMPORTED = 2\nVIA_ALIAS = 3\nUNREAD = 4\n"
              "PAIR, LEFT = 5, 6\nTYPED: int = 7\n_PRIVATE = 8\n\n"
              "def f():\n    return USED + PAIR\n"),
        "b": ("from .a import IMPORTED\nfrom . import a as x\n\n"
              "print(IMPORTED, x.VIA_ALIAS, x.f)\n"),
    }
    assert unread_public_names(sources, ["a"]) == ["a.LEFT", "a.TYPED", "a.UNREAD"]


def test_scan_reads_a_classmethod_only_through_its_class():
    sources = {
        "a": ("class K:\n"
              "    @classmethod\n    def by_cls(cls):\n        return cls.inner()\n"
              "    @staticmethod\n    def inner():\n        pass\n"
              "    @classmethod\n    def by_name(cls):\n        pass\n"
              "    @classmethod\n    def by_alias(cls):\n        pass\n"
              "    @classmethod\n    def by_import(cls):\n        pass\n"
              "    @classmethod\n    def by_instance(cls):\n        pass\n"
              "    def m(self):\n        return self.by_self()\n"
              "    @staticmethod\n    def by_self():\n        pass\n\n"
              "class L:\n    @classmethod\n    def by_instance(cls):\n"
              "        pass\n\n"
              "def f(k):\n    return K.by_name(), k.by_instance(), k.m()\n"),
        "b": ("from .a import K as J\nfrom . import a\n\n"
              "J.by_import()\na.K.by_alias()\na.K.by_cls()\n"
              "a.L().by_instance()\na.f(a.K())\n"),
    }
    assert unread_public_names(sources, ["a"]) == \
        ["a.K.by_instance", "a.L.by_instance"]


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
    innermost first, ``module``).  A constructor's qualified name is its
    class's, "module.Class"."""
    defs, calls = [], []

    def visit(node, prefix, enclosing, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                method = isinstance(node, ast.ClassDef)
                qual = prefix[:-1] if method and child.name == "__init__" \
                    else f"{prefix}{child.name}"
                defs.append((qual, child, top, method))
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
    each module to its :func:`module_names`."""
    home = qual.split(".")[0]
    aliases, imported, _ = bound[module]
    if isinstance(call.func, ast.Attribute):
        target = call.func.value
        return method or top and isinstance(target, ast.Name) and \
            aliases.get(target.id) == home
    return not method and (module == home
                           or top and imported.get(call.func.id) == qual)


def constructs(call, module, cls, enclosing, bound, classmethods):
    """Whether ``call``, made in ``module`` inside the defs ``enclosing``,
    builds the package class ``cls`` ("module.Class"): through the
    class's name, or as ``cls(...)`` in one of its ``classmethods``
    ({"module.Class": defs})."""
    if isinstance(call.func, ast.Name) and call.func.id == "cls":
        owner = next((f for f in enclosing if "cls" in local_names(f)), None)
        return owner in classmethods.get(cls, ())
    return class_home(call.func, bound[module]) == cls


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


def has_options(fn):
    """Whether the defaulted parameters of ``fn`` are options: any
    function but a dunder method other than ``__init__``."""
    return fn.name == "__init__" or not (
        fn.name.startswith("__") and fn.name.endswith("__"))


def unset_options(sources, scope):
    """"module.function(parameter)" of each defaulted parameter of a
    module-level function, method or constructor of the modules
    ``scope`` that no call in ``sources`` ({module: text}) sets; a
    constructor is named by its class, "module.Class(parameter)"."""
    defs, calls, bound = [], [], {}
    for module, text in sources.items():
        tree = ast.parse(text)
        more_defs, more_calls = functions_and_calls(tree, module)
        defs += more_defs
        calls += more_calls
        bound[module] = module_names(tree, module)
    by_name, classmethods = {}, {}
    for qual, fn, top, method in defs:
        if fn.name != "__init__":
            by_name.setdefault(fn.name, []).append((qual, fn, top, method))
        elif top and method:
            for name in (qual.split(".")[-1], "cls"):
                by_name.setdefault(name, []).append((qual, fn, top, method))
        if method and any(isinstance(d, ast.Name) and d.id == "classmethod"
                          for d in fn.decorator_list):
            classmethods.setdefault(qual.rsplit(".", 1)[0], set()).add(fn)
    qual_of = {fn: qual for qual, fn, _, _ in defs}
    live, needs = set(), {}  # needs: option -> the options it forwards
    for call, enclosing, module in calls:
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if isinstance(call.func, ast.Name):  # an imported name by its own name
            name = bound[module][1].get(name, name).rsplit(".", 1)[-1]
        for qual, fn, top, method in by_name.get(name, ()):
            if fn.name == "__init__":
                if not constructs(call, module, qual, enclosing, bound,
                                  classmethods):
                    continue
            elif not reaches(call, module, qual, top, method, bound):
                continue
            for param, position in defaulted(fn).items():
                value = passed_value(call, param, position)
                if value is None:
                    continue
                option = f"{qual}({param})"
                owner = isinstance(value, ast.Name) and next(
                    (f for f in enclosing if value.id in local_names(f)), None)
                if owner and has_options(owner) and value.id in defaulted(owner):
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
                  if top and has_options(fn) and qual.split(".")[0] in scope
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
              "def go():\n    a.leaf(0, unset=1)\n    a.K(2)\n")}
    assert unset_options(sources, {"a", "b"}) == [
        "a.leaf(chained)", "a.leaf(nested)", "a.leaf(via_kwargs)",
        "a.middle(chained)", "b.step(cap)"]


def test_scan_flags_an_unset_constructor_option():
    sources = {"a": (
        "class K:\n    def __init__(self, x, by_name=1, by_alias=2, by_cls=3,\n"
        "                 forwarded=4, unset=5):\n        pass\n"
        "    @classmethod\n    def build(cls):\n        return cls(0, by_cls=6)\n"
        "    @staticmethod\n    def other():\n        cls = print\n"
        "        cls(0, unset=7)\n\n"
        "class L:\n    def __init__(self, width=1, renamed=2):\n"
        "        K(0, forwarded=width)\n\n"
        "def make():\n    return K(0, by_name=8)\n"),
        "b": ("from . import a\nfrom .a import L\nfrom .a import L as M\n\n"
              "def go(k):\n    a.K(0, by_alias=9)\n    L(width=2)\n"
              "    M(renamed=3)\n    k.__init__(0, unset=10)\n")}
    assert unset_options(sources, {"a", "b"}) == ["a.K(unset)"]


def is_dataclass(cls):
    """Whether the class ``cls`` is decorated with ``dataclass``."""
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def constructed_locals(fn, classes):
    """{name: class} of the locals that the function ``fn`` binds only
    by assignments ``name = C(...)`` of one class ``C`` of ``classes``;
    a parameter, or a name also bound otherwise, has no class."""
    bindings = {}  # name -> the classes of its bindings, None for any other
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bindings.setdefault(node.name, set()).add(None)
            continue
        if isinstance(node, SCOPES):
            continue
        target = node.targets[0] if isinstance(node, ast.Assign) and len(node.targets) == 1 else None
        if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
            callee = node.value.func
            cls = getattr(callee, "id", getattr(callee, "attr", None))
            if cls in classes:
                bindings.setdefault(target.id, set()).add(cls)
                todo.append(node.value)
                continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bindings.setdefault(node.id, set()).add(None)
        todo.extend(ast.iter_child_nodes(node))
    a = fn.args
    params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    local = local_names(fn) - params  # a global or nonlocal name is not the function's
    return {name: next(iter(found)) for name, found in bindings.items()
            if len(found) == 1 and None not in found and name in local}


def attribute_reads(node, classes=frozenset(), owners=None):
    """(owner, name) of each attribute read under ``node``: ``owner`` is
    the class of the receiver where the scan knows it, None for any
    other receiver.  It knows two: a method's first parameter (``self``,
    or ``cls`` in a classmethod) is the method's class, and a local name
    that a function binds only to calls of one class of ``classes``
    (``k = K()``) is that class, in the function and the scopes inside
    it that do not bind the name themselves."""
    owners = owners or {}
    if isinstance(node, ast.ClassDef):
        reads = set()
        for item in node.body:
            method = (isinstance(item, ast.FunctionDef) and item.args.args
                      and not any(getattr(d, "id", None) == "staticmethod"
                                  for d in item.decorator_list))
            if method:
                mine = {item.args.args[0].arg: node.name,
                        **constructed_locals(item, classes)}
                for child in ast.iter_child_nodes(item):
                    reads |= attribute_reads(child, classes, mine)
            else:
                reads |= attribute_reads(item, classes)
        return reads
    if isinstance(node, SCOPES):
        bound = local_names(node)
        owners = {name: cls for name, cls in owners.items() if name not in bound}
        if isinstance(node, ast.FunctionDef):
            owners.update(constructed_locals(node, classes))
    reads = set()
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        receiver = node.value.id if isinstance(node.value, ast.Name) else None
        reads.add((owners.get(receiver), node.attr))
    for child in ast.iter_child_nodes(node):
        reads |= attribute_reads(child, classes, owners)
    return reads


def unread_fields(sources, scope):
    """"module.Class.field" of each dataclass field of the modules
    ``scope`` that no source of ``sources`` ({module: text}) reads as an
    attribute.  A read through a receiver of known class (a method's
    ``self.<field>``, or ``k.<field>`` after ``k = K(...)``) reads the
    field only when that class is the dataclass or derives from it by
    name; otherwise it reads that class's own attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    classes = {cls.name for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)}
    reads = set().union(*(attribute_reads(tree, classes) for tree in trees.values()))
    derived = {}  # class name -> names of the classes deriving from it
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for base in cls.bases:
                    name = getattr(base, "id", getattr(base, "attr", None))
                    derived.setdefault(name, set()).add(cls.name)
    return sorted(f"{module}.{cls.name}.{field.target.id}"
                  for module in scope for cls in trees[module].body
                  if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
                  for field in cls.body if isinstance(field, ast.AnnAssign)
                  and not any((owner, field.target.id) in reads for owner in
                              {None, cls.name} | derived.get(cls.name, set())))


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE + BENCH}
    assert unread_fields(sources, [p.stem for p in PACKAGE]) == []


def test_scan_flags_an_unread_field():
    sources = {
        "a": ("from dataclasses import dataclass\nimport dataclasses\n\n"
              "@dataclass\nclass P:\n    read: int\n    written: int = 0\n\n"
              "@dataclasses.dataclass(frozen=True)\nclass Q:\n    unread: int\n\n"
              "class Plain:\n    ignored: int\n\n"
              "def f(p):\n    p.written = p.read\n    return Q(1)\n"),
        "b": "def g(x):\n    return x.other.read\n",
    }
    assert unread_fields(sources, ["a"]) == ["a.P.written", "a.Q.unread"]


def test_scan_flags_a_field_shadowed_by_another_class():
    """``self.<name>`` in another class's method reads that class's own
    attribute; the dataclass's own methods (closures included), its
    subclasses, and any other receiver (a staticmethod's first
    parameter included) read the field."""
    sources = {
        "a": ("from dataclasses import dataclass\n\n"
              "@dataclass\nclass P:\n    shadowed: int\n    own: int\n"
              "    inherited: int\n    by_cls: int\n    by_closure: int\n"
              "    by_static: int\n\n"
              "    def total(self):\n        return self.own\n\n"
              "    @classmethod\n    def make(cls):\n        return cls.by_cls\n\n"
              "    def later(self):\n        return lambda: self.by_closure\n\n"
              "@dataclass\nclass Q:\n    unread: int\n\n"
              "class K:\n    def __init__(self):\n        self.shadowed = 1\n\n"
              "    def get(self):\n        return self.shadowed\n\n"
              "    @staticmethod\n    def peek(self):\n        return self.by_static\n\n"
              "class Sub(P):\n    def get(self):\n        return self.inherited\n"),
    }
    assert unread_fields(sources, ["a"]) == ["a.P.shadowed", "a.Q.unread"]


def test_scan_reads_a_constructed_local_as_its_class():
    """``k = K(); k.types`` reads K's own attribute, not the field of
    that name of another class, also from a closure; the dataclass, a
    class derived from it, a call of a function, a name bound otherwise
    too, and a parameter, of the function or of a scope inside it,
    leave a read of the field."""
    sources = {
        "a": ("from dataclasses import dataclass\n\n"
              "@dataclass\nclass P:\n    types: int\n    closure: int\n"
              "    own: int\n    inherited: int\n    by_func: int\n"
              "    rebound: int\n    by_param: int\n    by_inner: int\n\n"
              "class K:\n    pass\n\n"
              "class Sub(P):\n    pass\n\n"
              "def make():\n    return K()\n\n"
              "def f(b):\n    k = K()\n    p = P(1, 2, 3, 4, 5, 6, 7, 8)\n"
              "    s = Sub()\n    m = make()\n    j = K()\n    j = make()\n"
              "    b = K()\n"
              "    def inner(k):\n        return k.by_inner\n"
              "    return (k.types, lambda: k.closure, p.own, s.inherited,\n"
              "            m.by_func, j.rebound, b.by_param, inner)\n"),
    }
    assert unread_fields(sources, ["a"]) == ["a.P.closure", "a.P.types"]
