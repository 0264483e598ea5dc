"""Static checks run with the tests, as no linter is a test dependency: every
module-level import of a package module is used by that module, every
private top-level function or class is referenced by some package module,
every public one is reached by the package, its own module or the
benchmark, or is allowlisted with a reason, and so is every method and
property of a public class and every public module-level constant; every
defaulted parameter is passed by some caller, and by some caller as other
than a literal equal to its default, and every defaulted dataclass field is
passed, assigned or replaced somewhere, or is allowlisted with a reason."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fuzzyfix"
PERFBENCH = ROOT / "perfbench"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that no other
    part of it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_modules_found():
    assert {"contractions.py", "dynamics.py", "defaults.py"} <= set(MODULES)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport math\n"
              "import numpy as np\nfrom .defaults import CLASS_TOL, "
              "ENDPOINT_CLAMP\nx = np.zeros(1) + CLASS_TOL\n")
    assert unused_imports(source) == ["math", "ENDPOINT_CLAMP"]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def unreferenced_private_definitions(sources: dict) -> list[str]:
    """Top-level functions and classes of the modules in ``sources`` (name
    to source) whose names start with a single underscore and that no
    module reads as a name or an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}:{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [d for d in defined if d.split(":")[1] not in read]


def test_the_check_sees_an_unreferenced_private_definition():
    sources = {"a.py": "def _used():\n    pass\n\n\nclass _Idle:\n    pass\n"
                       "\n\ndef __dunder__():\n    pass\n",
               "b.py": "from . import a\n\nx = a._used\n\n\n"
                       "def _gone():\n    return x\n"}
    assert unreferenced_private_definitions(sources) == ["a.py:_Idle",
                                                         "b.py:_gone"]


def test_every_private_definition_is_referenced():
    sources = {m: (SRC / m).read_text() for m in PACKAGE}
    assert unreferenced_private_definitions(sources) == []


def _reads(nodes) -> set[str]:
    """Names read under ``nodes``: loaded names and attributes, and the
    names that ``from ... import`` statements bind."""
    read = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return read


def unreached_public_definitions(package: dict, bench: dict) -> list[str]:
    """Top-level public functions and classes of the ``package`` modules
    (name to source, ``__init__.py`` left out) that no other package module
    reads, that their own module reads nowhere outside their definition,
    and that no ``bench`` source reads as a name, as an attribute or as a
    ``"<module>.<name>"`` string literal.  A longer dotted string, such as
    the metric name ``"algebra.tnorm_apply.elements"``, reaches nothing."""
    trees = {m: ast.parse(src) for m, src in package.items()
             if m != "__init__.py"}
    module_reads = {m: _reads(tree.body) for m, tree in trees.items()}
    bench_trees = [ast.parse(src) for src in bench.values()]
    bench_reads = _reads(bench_trees)
    literals = {n.value for tree in bench_trees for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unreached = []
    for module, tree in trees.items():
        layer = module.removesuffix(".py")
        others = set().union(*(r for m, r in module_reads.items()
                               if m != module))
        for i, node in enumerate(tree.body):
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            name = node.name
            own = _reads(tree.body[:i] + tree.body[i + 1:])
            if not (name in others or name in own or name in bench_reads
                    or f"{layer}.{name}" in literals):
                unreached.append(f"{module}:{name}")
    return unreached


# Public definitions that nothing in the package or the benchmark reads,
# kept on purpose, each with its reason.
REACHABLE_BY_DESIGN = {
    "expressions.py:pretty": "the inverse of parse_expression, which the "
                             "parser's round-trip property test needs",
}


def test_the_check_sees_an_unreached_public_definition():
    package = {
        "__init__.py": "from .a import idle, used\n",
        "a.py": "def used():\n    pass\n\n\ndef idle():\n    return idle\n"
                "\n\ndef local():\n    pass\n\n\nx = local\n\n\n"
                "class Bench:\n    pass\n\n\ndef traced():\n    pass\n",
        "b.py": "from .a import used\n\n\nclass Shown:\n    pass\n",
    }
    bench = {"run.py": "import fuzzyfix.a\n\nfuzzyfix.a.Bench()\n"
                       "COUNTED = {'a.traced', 'b.Shown.calls'}\n"}
    assert unreached_public_definitions(package, bench) == ["a.py:idle",
                                                            "b.py:Shown"]


def test_every_public_definition_is_reached():
    package = {m: (SRC / m).read_text() for m in PACKAGE}
    bench = {str(p): p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))}
    unreached = unreached_public_definitions(package, bench)
    assert sorted(set(unreached) - set(REACHABLE_BY_DESIGN)) == []
    # an allowlisted name that is reached after all needs no entry
    assert sorted(set(REACHABLE_BY_DESIGN) - set(unreached)) == []


def _attribute_reads(nodes) -> Counter:
    """How often each attribute name is read under ``nodes``."""
    return Counter(n.attr for node in nodes for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def unreached_members(package: dict, bench: dict) -> list[str]:
    """Methods and properties of the public top-level classes of the
    ``package`` modules (name to source, ``__init__.py`` left out), and
    their public module-level constants, that nothing reaches.

    A method is reached where a package module reads its name as an
    attribute outside the method itself, where a ``bench`` source reads the
    name, or where a bench tuple pairs the class with the name as a string,
    as the tracer's ``(FuzzySpace, "m", ...)`` does.  The match is by name,
    whatever the object.  Names that start and end with an underscore
    (``__call__``, an enum's ``_missing_``) are called by Python itself and
    are left out.  A constant is reached as a public definition is."""
    trees = {m: ast.parse(src) for m, src in package.items()
             if m != "__init__.py"}
    attributes = _attribute_reads(trees.values())
    names = _reads(trees.values())
    bench_trees = [ast.parse(src) for src in bench.values()]
    bench_reads = _reads(bench_trees)
    literals = {n.value for tree in bench_trees for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    pairs = {(n.elts[0].id, n.elts[1].value)
             for tree in bench_trees for n in ast.walk(tree)
             if isinstance(n, ast.Tuple) and len(n.elts) >= 2
             and isinstance(n.elts[0], ast.Name)
             and isinstance(n.elts[1], ast.Constant)}
    unreached = []
    for module, tree in trees.items():
        layer = module.removesuffix(".py")
        for node in tree.body:
            public_class = (isinstance(node, ast.ClassDef)
                            and not node.name.startswith("_"))
            for item in node.body if public_class else []:
                if (not isinstance(item, ast.FunctionDef)
                        or item.name.startswith("_")
                        and item.name.endswith("_")):
                    continue
                name = item.name
                if not (attributes[name] > _attribute_reads([item])[name]
                        or name in bench_reads
                        or (node.name, name) in pairs):
                    unreached.append(f"{module}:{node.name}.{name}")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and not target.id.startswith("_")
                        and target.id not in names | bench_reads
                        and f"{layer}.{target.id}" not in literals):
                    unreached.append(f"{module}:{target.id}")
    return unreached


def test_the_check_sees_an_unreached_member():
    package = {
        "__init__.py": "from .a import LIMIT, Box\n",
        "a.py": "LIMIT = 3\nIDLE = 4\nTRACED = 5\n\n\n"
                "class Box:\n    def __call__(self):\n"
                "        return self.used()\n\n"
                "    def used(self):\n        return LIMIT\n\n"
                "    @property\n    def shown(self):\n        return 1\n\n"
                "    def again(self):\n        return self.again()\n\n"
                "    def wrapped(self):\n        pass\n\n"
                "    def _missing_(self):\n        pass\n",
        "b.py": "from .a import Box\n\n\nclass Later:\n"
                "    def used(self):\n        pass\n\n"
                "    def alone(self):\n        pass\n",
    }
    bench = {"run.py": "from fuzzyfix.a import Box\n\nBox().shown\n"
                       "WRAP = [(Box, 'wrapped', 'a')]\nSEEN = 'a.TRACED'\n"}
    assert unreached_members(package, bench) == [
        "a.py:IDLE", "a.py:Box.again", "b.py:Later.alone"]


def test_every_member_is_reached():
    package = {m: (SRC / m).read_text() for m in PACKAGE}
    bench = {str(p): p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))}
    assert unreached_members(package, bench) == []


def _calls(trees) -> dict:
    """Each called name, as a bare name or an attribute, with its calls."""
    calls = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = (n.func.id if isinstance(n.func, ast.Name)
                        else n.func.attr if isinstance(n.func, ast.Attribute)
                        else None)
                calls.setdefault(name, []).append(n)
    return calls


# what a call may pass through ``*`` or ``**``, and a value that is no literal
_UNSEEN = object()


def _passed(call: ast.Call, i, arg: str):
    """What ``call`` passes for the parameter ``arg`` at position ``i`` (None
    when keyword-only): the argument's node, ``_UNSEEN`` when ``*`` or
    ``**`` may pass it, or None when it passes none."""
    for k in call.keywords:
        if k.arg == arg:
            return k.value
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    if i is not None and not starred and i < len(call.args):
        return call.args[i]
    if i is not None and starred or any(k.arg is None for k in call.keywords):
        return _UNSEEN
    return None


def _literal(node):
    """The value of a literal node, else ``_UNSEEN``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _UNSEEN


def _named(node, name: str) -> bool:
    """Whether ``node`` is the name ``name``, bare, as an attribute or
    called, as a decorator may be written."""
    node = node.func if isinstance(node, ast.Call) else node
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None) == name


def _unset_fields(module: str, cls: ast.ClassDef, calls: dict,
                  assigned: set) -> list[str]:
    """The defaulted fields of the dataclass ``cls`` that no call of the
    class passes, nor a ``cls(...)`` call in its own class methods, and
    that no code assigns as an attribute or passes to ``replace``.  A
    ``field(default_factory=...)`` container is left out."""
    if not any(_named(d, "dataclass") for d in cls.decorator_list):
        return []
    own = [n for fn in cls.body if isinstance(fn, ast.FunctionDef)
           and any(_named(d, "classmethod") for d in fn.decorator_list)
           for n in ast.walk(fn) if isinstance(n, ast.Call)
           and isinstance(n.func, ast.Name) and n.func.id == "cls"]
    fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)
              and isinstance(f.target, ast.Name)]
    unset = []
    for i, f in enumerate(fields):
        keys = ({k.arg for k in f.value.keywords}
                if isinstance(f.value, ast.Call) and _named(f.value, "field")
                else set() if f.value is None else {"default"})
        if "default" not in keys:
            continue
        name = f.target.id
        if not (any(_passed(call, i, name) is not None
                    for call in calls.get(cls.name, []) + own)
                or name in assigned):
            unset.append(f"{module}:{cls.name}({name})")
    return unset


def unset_parameters(package: dict, bench: dict) -> list[str]:
    """Defaulted parameters of the top-level functions of the ``package``
    modules (name to source, ``__init__.py`` left out) and of the methods
    of their top-level classes, that no call in a package module or a
    ``bench`` source passes by keyword, by position or through ``*`` or
    ``**``; and knobs with one value in use, literal defaults that every
    call passing the parameter passes as a literal equal to the default.
    The defaulted fields of their top-level dataclasses are judged by
    :func:`_unset_fields`.

    A call is matched by name, whatever the object; a call of a class is a
    call of its ``__init__``, and a method's positions start after
    ``self`` or ``cls`` unless it is a static method."""
    trees = {m: ast.parse(src) for m, src in package.items()}
    all_trees = list(trees.values()) + [ast.parse(src)
                                        for src in bench.values()]
    calls = _calls(all_trees)
    # field names set after construction: as attributes, or by replace()
    assigned = {n.attr for tree in all_trees for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)}
    assigned |= {k.arg for call in calls.get("replace", [])
                 for k in call.keywords}
    unset = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            if owner:
                unset += _unset_fields(module, node, calls, assigned)
            for fn in node.body if owner else [node]:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                positional = fn.args.posonlyargs + fn.args.args
                skip = 1 if owner and not static else 0
                first = len(positional) - len(fn.args.defaults)
                defaulted = [(i - skip, a.arg, d) for i, (a, d) in enumerate(
                    zip(positional[first:], fn.args.defaults), first)]
                defaulted += [(None, a.arg, d) for a, d in
                              zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                              if d is not None]
                called = owner if fn.name == "__init__" else fn.name
                where = f"{module}:{owner + '.' if owner else ''}{fn.name}"
                for i, arg, default in defaulted:
                    passed = [p for call in calls.get(called, [])
                              if (p := _passed(call, i, arg)) is not None]
                    value = _literal(default)
                    if not passed or value is not _UNSEEN and all(
                            p is not _UNSEEN and _literal(p) == value
                            for p in passed):
                        unset.append(f"{where}({arg})")
    return unset


# Defaulted parameters that nothing in the package or the benchmark passes,
# or passes only as their defaults, kept on purpose, each with its reason.
SET_BY_DESIGN = {
    "cli.py:main(argv)": "the console entry point, which passes no argv",
    "contractions.py:equivalence_probe(r_grid)":
        "ROADMAP item 9 decides the probe and its grids",
    "contractions.py:extract_empirical_gauge(t)":
        "the scale is the function's subject, not a setting",
    "dynamics.py:cauchy_criterion_check(params)":
        "ROADMAP items 9 and 10 wire the trace checks into commands",
    "expressions.py:BinOp(span)": "the parser builds it through cls(...) "
                                  "in _Parser.joined",
    "expressions.py:Cmp(span)": "the parser builds it through cls(...) "
                                "in _Parser.joined",
}


def test_the_check_sees_an_unset_parameter():
    package = {
        "__init__.py": "from .a import Box, f\n",
        "a.py": "def f(x, y=1, z=2, *, w=3, v=4):\n    pass\n\n\n"
                "def g(x=0, y=1):\n    pass\n\n\n"
                "def h(x=0):\n    pass\n\n\n"
                "class Box:\n    def __init__(self, size=1, label=''):\n"
                "        pass\n\n"
                "    def put(self, item, at=0):\n        pass\n\n"
                "    @staticmethod\n    def make(kind=None):\n        pass\n\n"
                "    @classmethod\n    def of(cls, n=1):\n        pass\n",
        "b.py": "from .a import Box, f, g\n\n\nf(0, 5, v=2)\ng(*[1, 2])\n"
                "Box(3)\nBox.make('x')\n",
    }
    bench = {"run.py": "import fuzzyfix.a\n\nfuzzyfix.a.h(**{})\n"
                       "fuzzyfix.a.Box().put('a')\n"}
    assert unset_parameters(package, bench) == [
        "a.py:f(z)", "a.py:f(w)", "a.py:Box.__init__(label)",
        "a.py:Box.put(at)", "a.py:Box.of(n)"]


def test_the_check_sees_a_parameter_passed_only_as_its_default():
    package = {
        "__init__.py": "from .a import f\n",
        "a.py": "def f(x, y=1, z=(1, 2), *, w=None, v=0.5, u=LIMIT):\n"
                "    pass\n\n\n"
                "class Box:\n    def put(self, item, at=0, size=2):\n"
                "        pass\n",
        "b.py": "from .a import Box, f\n\n\nf(0, 1, (1, 2), w=None, u=3)\n"
                "f(0, y=1, v=0.5)\nf(0, z=(1, 3), v=n)\nBox().put('a', 0)\n"
                "Box().put('b', *[0], size=2)\n",
    }
    bench = {"run.py": "import fuzzyfix.a\n\nfuzzyfix.a.f(1, w=None)\n"
                       "fuzzyfix.a.Box().put('c', size=2)\n"}
    # y and w only ever as their defaults; z and v also otherwise; u's
    # default is no literal; size only as its default, but at maybe not
    assert unset_parameters(package, bench) == ["a.py:f(y)", "a.py:f(w)",
                                                "a.py:Box.put(size)"]


def test_the_check_sees_an_unset_dataclass_field():
    package = {
        "__init__.py": "from .a import Box\n",
        "a.py": "from dataclasses import dataclass, field\n\n\n"
                "@dataclass(frozen=True)\nclass Box:\n    size: int\n"
                "    kind: str = field(compare=False)\n    label: str = ''\n"
                "    tag: str = field(default='x')\n"
                "    items: list = field(default_factory=list)\n"
                "    shown: bool = False\n    moved: int = 0\n"
                "    made: int = 0\n    idle: int = 0\n\n"
                "    @classmethod\n    def of(cls, n):\n"
                "        return cls(n, 'k', made=1)\n\n\n"
                "class Plain:\n    flag: bool = True\n",
        "b.py": "import dataclasses\nfrom .a import Box\n\n\n"
                "box = Box(1, 'k')\nbox.shown = True\n"
                "dataclasses.replace(box, moved=2)\n",
    }
    bench = {"run.py": "from fuzzyfix.a import Box\n\nBox(2, 'k', 'b')\n"}
    # label is passed, shown assigned, moved replaced and made set by the
    # class method; items is a container, and Plain is no dataclass
    assert unset_parameters(package, bench) == ["a.py:Box(tag)",
                                                "a.py:Box(idle)"]


def test_every_defaulted_parameter_is_passed():
    package = {m: (SRC / m).read_text() for m in PACKAGE}
    bench = {str(p): p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))}
    unset = unset_parameters(package, bench)
    assert sorted(set(unset) - set(SET_BY_DESIGN)) == []
    # an allowlisted parameter that is passed after all needs no entry
    assert sorted(set(SET_BY_DESIGN) - set(unset)) == []
