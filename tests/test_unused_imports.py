"""Every name a module imports is used in it (no linter is installed, so this
stands in for flake8's F401).

``__init__.py`` only re-exports and is skipped, and so is an import statement
marked ``# noqa: F401`` on its first line. A name listed in ``__all__`` counts
as used.
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
