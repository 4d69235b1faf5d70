"""Every top-level import of a plopen module is used in that module, and
every private helper of the package is used by the package.

`__init__.py` is left out of the import check: its imports are the
package's exports. A name counts as used when it appears anywhere in the
module's syntax tree as a name (a call, an annotation, the base of an
attribute), so a stray import left by a refactor fails here. A private
top-level function or private method counts as used when its name appears
as a name or an attribute anywhere in the package outside its own def, so
a helper kept only for the tests fails here too.
"""

import ast
from collections import Counter
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


def _referenced(node: ast.AST) -> Counter:
    """How often each name appears under a node as a name or an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def orphaned_helpers(sources: list[str]) -> list[str]:
    """The private top-level functions and private methods of the sources
    whose names appear nowhere in the sources outside their own def."""
    trees = [ast.parse(source) for source in sources]
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.", sub) for sub in node.body]
            else:
                defs.append(("", node))
    total = sum((_referenced(tree) for tree in trees), Counter())
    return [
        prefix + node.name
        for prefix, node in defs
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and total[node.name] == _referenced(node)[node.name]
    ]


def test_guard_finds_a_stray_import():
    source = "from __future__ import annotations\nimport os.path\nfrom x import y, z as w\nw(y)\n"
    assert unused_imports(source) == ["os"]


def test_guard_finds_an_orphaned_helper():
    sources = [
        "def _used():\n    pass\n\ndef _orphan(n):\n    return _orphan(n - 1)\n",
        "class A:\n    def __init__(self):\n        pass\n\n"
        "    def _m(self):\n        pass\n\n    def _n(self):\n        return self._m()\n\n"
        "def public():\n    return _used()\n",
    ]
    assert orphaned_helpers(sources) == ["_orphan", "A._n"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_helper_is_used():
    assert orphaned_helpers([path.read_text() for path in sorted(SRC.glob("*.py"))]) == []
