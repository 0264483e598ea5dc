"""Static checks run with the tests, as no linter is a test dependency: every
module-level import of a package module is used by that module, and every
private top-level function or class is referenced by some package module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fuzzyfix"
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
