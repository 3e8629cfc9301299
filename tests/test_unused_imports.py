"""No dead names in ``src/``: every name a module imports is used in it (no
linter is installed, so this stands in for flake8's F401), and every
module-level ``_private`` def, class or constant is referenced by some module.

``__init__.py`` only re-exports and is skipped by the import check, and so is
an import statement marked ``# noqa: F401`` on its first line. A name listed
in ``__all__`` counts as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quantstab"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os\nimport numpy as np\n"
        "from a import (b, c)  # noqa: F401\nfrom d import e, f\n__all__ = ['f']\nnp.zeros(1)\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 5: e"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((SRC / module).read_text()) == []


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level ``_name`` defs, classes and assigned constants (dunders aside)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(n, node.lineno) for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def _unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each private definition that no module reads
    by name, as an attribute or through an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in referenced
    ]


def test_checker_finds_an_unreferenced_private_definition():
    sources = {
        "a.py": (
            "import numpy as np\n_LIMIT = 3\n_SPARE: int = 4\n__all__ = ['run']\n"
            "def _used():\n    return _LIMIT\ndef _dead():\n    pass\n"
            "class _Ghost:\n    pass\ndef run(x):\n    return _used() + x._method()\n"
        ),
        "b.py": "from .a import _imported\nfrom . import a\na._attribute\n",
        "c.py": "def _imported():\n    pass\ndef _attribute():\n    pass\n",
    }
    assert _unreferenced_privates(sources) == ["a.py:3: _SPARE", "a.py:7: _dead", "a.py:9: _Ghost"]


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_privates(sources) == []
