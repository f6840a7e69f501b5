"""Every name a ``gsc`` module imports is used in that module, and every
name it defines, module-level constants included, has a caller outside the
tests.

The package re-exports its API from ``__init__.py``, so that module is
left out; every other module is parsed with ``ast``, and a name counts as
used when it is read anywhere in the module, ``np`` of ``np.int64`` too.
A defined name counts as called when the library or the benchmark reads
it as a variable, an attribute or an import; assigning it is not a read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gsc"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_are_found():
    source = "import json\nimport numpy as np\nfrom .graph import Graph, generate\nnp.zeros(generate(1).n)\n"
    assert unused_imports(source) == ["Graph (line 3)", "json (line 1)"]


def test_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {p.name: bad for p in modules if (bad := unused_imports(p.read_text(encoding="utf-8")))}
    assert not unused, f"imported names never used: {unused}"


PERFBENCH = PACKAGE.parents[1] / "perfbench"


def library_names(source: str) -> list[str]:
    """Top-level functions and classes, and the non-dunder methods and
    properties of those classes, as ``name`` or ``Class.name``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, defs) and not item.name.startswith("__"))
    return names


def module_constants(source: str) -> list[str]:
    """Names a module assigns at its top level, other than dunders."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.extend(t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__"))
    return names


def referenced_names(source: str) -> set[str]:
    """Every name read as a variable, an attribute, or imported."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_library_names_are_found():
    source = ("class A:\n    def __init__(self): pass\n    def f(self): pass\n"
              "    @property\n    def p(self): pass\ndef g():\n    def inner(): pass\n")
    assert library_names(source) == ["A", "A.f", "A.p", "g"]
    assert referenced_names("from x import g\nA().p\nh()\n") == {"g", "A", "p", "h"}
    assert referenced_names("X = 1\nY: int = 2\nA().p = 3\n") == {"int", "A"}
    assert module_constants("X = 1\nY: int = 2\n__all__ = []\nclass A:\n    Z = 3\n") == ["X", "Y"]


def callers_and_modules():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted(p for p in PERFBENCH.glob("*.py") if p.name != "test_check.py")
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in callers))
    return modules, used


def test_every_library_name_has_a_caller_outside_the_tests():
    modules, used = callers_and_modules()
    unused = [f"{p.stem}.{name}" for p in modules for name in library_names(p.read_text(encoding="utf-8"))
              if name.rpartition(".")[2] not in used]
    assert not unused, f"library names only the tests reach: {unused}"


def test_every_module_constant_is_read_outside_the_tests():
    modules, used = callers_and_modules()
    unread = [f"{p.stem}.{name}" for p in modules for name in module_constants(p.read_text(encoding="utf-8"))
              if name not in used]
    assert not unread, f"module constants only the tests read: {unread}"
