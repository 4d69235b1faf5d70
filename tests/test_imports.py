"""Every top-level import of a plopen module is used in that module.

`__init__.py` is left out: its imports are the package's exports. A name
counts as used when it appears anywhere in the module's syntax tree as a
name (a call, an annotation, the base of an attribute), so a stray import
left by a refactor fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "plopen"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports of the source that it never uses."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_guard_finds_a_stray_import():
    source = "from __future__ import annotations\nimport os.path\nfrom x import y, z as w\nw(y)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []
