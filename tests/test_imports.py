"""Every name a ``gsc`` module imports is used in that module.

The package re-exports its API from ``__init__.py``, so that module is
left out; every other module is parsed with ``ast``, and a name counts as
used when it is read anywhere in the module, ``np`` of ``np.int64`` too.
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
