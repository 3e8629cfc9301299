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


# --------------------------------------------------------------------------
# One writer per output format: every CSV goes through simulation.write_csv
# and every JSON through cli._write_json, so no other code writes a file.

def _writes(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode may write: ``open(path, mode)`` or
    ``path.open(mode)``; a mode that is not a literal counts as writing."""
    index = 1 if isinstance(call.func, ast.Name) else 0
    mode = call.args[index] if len(call.args) > index else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return False
    literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return not literal or bool(set(mode.value) & set("wax+"))


def _file_writes(source: str) -> list[str]:
    """``function: what`` for each ``import csv``, ``savetxt``, ``write_text``
    or ``write_bytes`` call and write-mode ``open`` in ``source``; the
    function is ``<module>`` outside any."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import) and any(a.name == "csv" for a in child.names) or (
                isinstance(child, ast.ImportFrom) and child.module == "csv"
            ):
                found.append(f"{where}: import csv")
            elif isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in ("savetxt", "write_text", "write_bytes") or (
                    called == "open" and _writes(child)
                ):
                    found.append(f"{where}: {called}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_every_file_write():
    source = (
        "import csv\nimport numpy as np\nfrom pathlib import Path\n"
        "def read(p):\n    return open(p).read() + open(p, 'r').read() + Path(p).open('rb').read()\n"
        "def dump(p, a, mode):\n    np.savetxt(p, a)\n    open(p, mode=mode)\n"
        "    def inner():\n        Path(p).open('a')\n    return inner\n"
        "Path('x').write_text('')\nopen('y', 'r+')\n"
    )
    assert _file_writes(source) == [
        "<module>: import csv",
        "dump: savetxt",
        "dump: open",
        "inner: open",
        "<module>: write_text",
        "<module>: open",
    ]


def test_every_output_file_is_written_by_its_format_writer():
    found = [
        f"{path.name}:{write}" for path in sorted(SRC.glob("*.py")) for write in _file_writes(path.read_text())
    ]
    assert found == ["cli.py:_write_json: open", "simulation.py:write_csv: open"]


# --------------------------------------------------------------------------
# One definition per rule: the compiled model functions reach numbers only
# through SystemModel's point and column evaluators (and ``f_raw``, the
# hot-loop entry), and a per-axis value is read only by ``policies.per_axis``.

_COMPILED = {"_f_fn", "_jac_fn"}
_EVALUATORS = {"_point", "_columns"}


def _called_name(node: ast.AST):
    """The name a call calls, None for anything else."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def _float_array(call: ast.Call) -> bool:
    """Whether the first argument of ``call`` is ``asarray(value, float)`` or
    ``asarray(value, dtype=float)``."""
    inner = call.args[0] if call.args else None
    if _called_name(inner) != "asarray":
        return False
    dtypes = inner.args[1:] + [k.value for k in inner.keywords]
    return any(isinstance(d, ast.Name) and d.id == "float" for d in dtypes)


def _rule_breaks(source: str) -> list[str]:
    """``function: what`` for each read of a compiled function that is not an
    argument of an evaluator nor in ``f_raw``, and each
    ``broadcast_to(asarray(..., float))`` outside ``per_axis``."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        evaluator = isinstance(node, ast.Call) and _called_name(node) in _EVALUATORS
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in _COMPILED:
                passed = evaluator and child in node.args
                if isinstance(child.ctx, ast.Load) and not passed and where != "f_raw":
                    found.append(f"{where}: {child.attr}")
            elif _called_name(child) == "broadcast_to" and where != "per_axis" and _float_array(child):
                found.append(f"{where}: broadcast_to(asarray(..., float))")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_every_rule_break():
    source = (
        "import numpy as np\n"
        "class M:\n"
        "    def __init__(self, f):\n        self._f_fn = f\n"
        "    def f(self, x):\n        return self._point(self._f_fn, x)\n"
        "    def f_raw(self, *v):\n        return self._f_fn(*v)\n"
        "    def jacobian(self, x):\n        return self._jac_fn(*x)\n"
        "    def spare(self):\n        return self._columns(self._f_fn, self._jac_fn(1))\n"
        "def per_axis(v, n):\n    return np.broadcast_to(np.asarray(v, float), (n,)).copy()\n"
        "def box(v, n):\n    return np.broadcast_to(np.asarray(v, dtype=float), (n,)), np.broadcast_to(v, (n,))\n"
        "def bits(v, n):\n    return np.broadcast_to(np.asarray(v, int), (n,))\n"
    )
    assert _rule_breaks(source) == [
        "jacobian: _jac_fn",
        "spare: _jac_fn",
        "box: broadcast_to(asarray(..., float))",
    ]


_GRID_FIELDS = {"model", "cells_per_axis", "n_cells", "target", "noise_mean", "overflow_symbol"}


def _grid_fields_outside_the_core(source: str) -> list[str]:
    """``Class: field`` for each grid-quantizer field that a class other than
    ``_GridQuantizer`` assigns or defines."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef) or cls.name == "_GridQuantizer":
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                name = node.attr
            else:
                name = node.name if isinstance(node, ast.FunctionDef) else None
            if name in _GRID_FIELDS:
                found.append(f"{cls.name}: {name}")
    return found


def test_checker_finds_a_grid_field_outside_the_core():
    source = (
        "class _GridQuantizer:\n    def __init__(self, m):\n        self.model = m\n"
        "    def overflow_symbol(self):\n        return 1\n"
        "class Zoom(_GridQuantizer):\n    def __init__(self, m):\n        self.target = m\n        self.alpha = m\n"
        "    def overflow_symbol(self):\n        return 2\n"
    )
    assert _grid_fields_outside_the_core(source) == ["Zoom: overflow_symbol", "Zoom: target"]


def test_every_rule_is_defined_once():
    found = [f"{path.name}:{what}" for path in sorted(SRC.glob("*.py")) for what in _rule_breaks(path.read_text())]
    assert found == []
    assert _grid_fields_outside_the_core((SRC / "policies.py").read_text()) == []
