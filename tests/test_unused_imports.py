"""No dead names: every name a module of ``src/`` or ``tests/`` imports is
used in it (no linter is installed, so this stands in for flake8's F401), and
every module-level ``_private`` def, class or constant of ``src/`` is
referenced by some module.

``__init__.py`` only re-exports and is skipped by the import check, and so is
an import statement marked ``# noqa: F401`` on its first line. A name listed
in ``__all__`` counts as used.
"""

import ast
import importlib
import re
from pathlib import Path
from unittest import mock

import pytest

from quantstab import InitSpec, NoiseSpec, Partition, catalog_model, dynamics, null_policy
from quantstab.ergodics import ConvergenceTally, VisitTally
from quantstab.simulation import closed_loop_blocks, path_seed

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "quantstab"


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


_IMPORTERS = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
_IMPORTERS.update((f"tests/{p.name}", p) for p in TESTS.glob("*.py"))


@pytest.mark.parametrize("module", sorted(_IMPORTERS))
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(_IMPORTERS[module].read_text()) == []


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
# through SystemModel's point and column evaluators, and a per-axis value is
# read only by ``policies.per_axis``.

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
    argument of an evaluator, and each ``broadcast_to(asarray(..., float))``
    outside ``per_axis``."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        evaluator = isinstance(node, ast.Call) and _called_name(node) in _EVALUATORS
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in _COMPILED:
                passed = evaluator and child in node.args
                if isinstance(child.ctx, ast.Load) and not passed:
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
        "f_raw: _f_fn",
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


# --------------------------------------------------------------------------
# Two stepping loops: only simulation._lockstep and the entropy's open-loop
# stepping (stabilization_entropy._lockstep_states) step many rows through
# SystemModel.step_many; simulation.step is its one-row case.

def _callers(source: str, called: str, method: bool = False) -> list[str]:
    """The innermost enclosing function of each call of ``called`` (with
    ``method``, of ``<expression>.called`` only), ``<module>`` outside any."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if _called_name(child) == called and not (method and isinstance(child.func, ast.Name)):
                found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_every_step_many_call():
    source = (
        "class M:\n    def step_many(self, x, w, u):\n        return x\n"
        "def loop(m, x):\n    for _ in range(3):\n        x = m.step_many(x, x, x)\n"
        "    def inner():\n        return step_many(x, x, x)\n    return inner\n"
        "def spare(m):\n    return m.step_many\n"
        "M().step_many(1, 2, 3)\n"
    )
    assert _callers(source, "step_many") == ["loop", "inner", "<module>"]


def test_only_the_stepping_loops_call_step_many():
    found = [
        f"{path.name}:{where}" for path in sorted(SRC.glob("*.py")) for where in _callers(path.read_text(), "step_many")
    ]
    assert found == ["simulation.py:step", "simulation.py:_lockstep", "stabilization_entropy.py:_lockstep_states"]


# --------------------------------------------------------------------------
# One constructor per model: ``compile_exprs`` is called only by
# ``SystemModel.__init__``, so a model's ``f`` and its Jacobian always come
# from the same parsed declaration.

def _compile_callers(source: str) -> list[str]:
    """``Class.function`` (or ``function``, ``<module>`` outside any) for
    each ``compile_exprs`` call, by its innermost enclosing class and function."""
    found = []

    def visit(node: ast.AST, where: str, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if _called_name(child) == "compile_exprs":
                found.append(where)
            if isinstance(child, ast.ClassDef):
                visit(child, where, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name, "")
            else:
                visit(child, where, cls)

    visit(ast.parse(source), "<module>", "")
    return found


def test_checker_finds_every_compile_call():
    source = (
        "from .model_dsl import compile_exprs\n"
        "class M:\n    def __init__(self, s):\n        self._f_fn = compile_exprs(s.exprs, 1, 0)\n"
        "    @classmethod\n    def build(cls, s):\n        return model_dsl.compile_exprs(s, 1, 0)\n"
        "def helper(s):\n    def inner():\n        return compile_exprs(s, 1, 0)\n    return inner\n"
        "compile_exprs((), 1, 0)\n"
    )
    assert _compile_callers(source) == ["M.__init__", "M.build", "inner", "<module>"]


def test_only_the_model_constructor_compiles():
    found = [
        f"{path.name}:{where}" for path in sorted(SRC.glob("*.py")) for where in _compile_callers(path.read_text())
    ]
    assert found == ["dynamics.py:SystemModel.__init__"] * 2  # f, then its Jacobian


# --------------------------------------------------------------------------
# One exit path: only ``cli.main`` prints a finding and picks exit 0 or 3 from
# the findings a subcommand returns, and only ergodics and capacity_bounds
# read the 1% overflow rule. One checkpoint choice: only ergodics reads the
# default convergence checkpoints.

def _reads(source: str, names: set[str], text: str = "") -> list[str]:
    """``function: what`` (``<module>`` outside any function) for each load,
    attribute load or import of a name in ``names`` and, given ``text``, each
    string constant that holds it, f-string parts included."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id in names:
                found.append(f"{where}: {child.id}")
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load) and child.attr in names:
                found.append(f"{where}: {child.attr}")
            elif isinstance(child, ast.ImportFrom):
                found.extend(f"{where}: {alias.name}" for alias in child.names if alias.name in names)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str) and text and text in child.value:
                found.append(f"{where}: {text!r}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_every_read_of_an_exit_rule():
    source = (
        "from .a import EXIT_OK, LIMIT\nEXIT_VIOLATION = 3\n"
        "def main(findings):\n    for f in findings:\n        print(f'assumption violation: {f}')\n"
        "    return EXIT_VIOLATION if findings else EXIT_OK\n"
        "def cmd(x):\n    print('assumption violation: ' + x)\n    return EXIT_OK\n"
        "def refuse(mass):\n    return mass >= LIMIT\n"
    )
    assert _reads(source, {"EXIT_OK", "EXIT_VIOLATION", "LIMIT"}, "assumption violation") == [
        "<module>: EXIT_OK",
        "<module>: LIMIT",
        "main: 'assumption violation'",
        "main: EXIT_VIOLATION",
        "main: EXIT_OK",
        "cmd: 'assumption violation'",
        "cmd: EXIT_OK",
        "refuse: LIMIT",
    ]


def test_only_main_reports_findings():
    found = [
        f"{path.name}:{what}"
        for path in sorted(SRC.glob("*.py"))
        for what in _reads(path.read_text(), {"EXIT_OK", "EXIT_VIOLATION"}, "assumption violation")
    ]
    assert found == ["cli.py:main: 'assumption violation'", "cli.py:main: EXIT_VIOLATION", "cli.py:main: EXIT_OK"]


def test_only_the_measure_and_the_bound_read_the_overflow_rule():
    readers = {path.name for path in SRC.glob("*.py") if _reads(path.read_text(), {"MAX_OVERFLOW_MASS"})}
    assert readers == {"capacity_bounds.py", "ergodics.py"}


def test_checker_finds_every_read_of_the_default_checkpoints():
    source = (
        "from .ergodics import DEFAULT_CHECKPOINTS as DEFAULTS\nfrom . import ergodics\n"
        "def diagnose(section):\n    return section.get('checkpoints') or ergodics.DEFAULT_CHECKPOINTS\n"
        "def curve(checkpoints=DEFAULTS):\n    DEFAULT_CHECKPOINTS = ()\n    return checkpoints\n"
        "def chosen(steps):\n    return [c for c in DEFAULT_CHECKPOINTS if c < steps]\n"
    )
    assert _reads(source, {"DEFAULT_CHECKPOINTS"}) == [
        "<module>: DEFAULT_CHECKPOINTS",
        "diagnose: DEFAULT_CHECKPOINTS",
        "chosen: DEFAULT_CHECKPOINTS",
    ]


def test_only_the_curve_reads_the_default_checkpoints():
    readers = {path.name for path in SRC.glob("*.py") if _reads(path.read_text(), {"DEFAULT_CHECKPOINTS"})}
    assert readers == {"ergodics.py"}


# --------------------------------------------------------------------------
# One counting rule: only ``LoopBlock.visited`` sets a burn-in against a
# block's first step or a step offset, and each fold classifies a block in one
# ``cell_indices`` call: ``VisitTally.add`` its visited rows,
# ``ConvergenceTally.add`` the lead path's row.

_BURN_IN = {"burn_in", "burn"}
_STEPS = {"t0", "t", "steps", "taken", "start", "offsets"}


def _names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _burn_in_rules(source: str) -> list[str]:
    """``Class.function`` (or ``function``, ``<module>`` outside any), once
    each, for every comparison or arithmetic that sets a burn-in against a
    first step or a step offset, and every slice bounded by a burn-in."""
    found = []

    def visit(node: ast.AST, where: str, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            names = None
            if isinstance(child, (ast.Compare, ast.BinOp)):
                names = _names(child)
            elif isinstance(child, ast.Slice):
                names = _names(child) | _STEPS  # a slice's bounds are step offsets
            if names and names & _BURN_IN and names & _STEPS and where not in found:
                found.append(where)
            if isinstance(child, ast.ClassDef):
                visit(child, where, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name, "")
            else:
                visit(child, where, cls)

    visit(ast.parse(source), "<module>", "")
    return found


def test_checker_finds_every_burn_in_rule():
    source = (
        "class Tally:\n"
        "    def __init__(self, burn_in):\n        if burn_in < 0:\n            raise ValueError\n"
        "    def add(self, block):\n        start = max(self.burn_in - block.t0, 0)\n"
        "        return block.x[0, start:block.steps[0]]\n"
        "def counts(x, burn_in, steps):\n    return x[burn_in:steps]\n"
        "def visited(t0, offsets, burn):\n    return t0 + offsets >= burn\n"
        "def measure(burn_in, tally):\n    if burn_in >= tally.horizon:\n        raise ValueError\n"
        "    burn = int(0.1 * tally.horizon)\n    return burn\n"
    )
    assert _burn_in_rules(source) == ["Tally.add", "counts", "visited"]


def test_only_the_block_states_the_counting_rule():
    found = [
        f"{path.name}:{where}" for path in sorted(SRC.glob("*.py")) for where in _burn_in_rules(path.read_text())
    ]
    assert found == ["simulation.py:LoopBlock.visited"]


@pytest.mark.parametrize("paths, checkpoints, calls_per_block", [(None, None, 1), (5, [10, 100], 2)])
def test_a_tally_classifies_each_block_in_one_call(paths, checkpoints, calls_per_block):
    part = Partition([-6.0], [6.0], [8])
    tally = VisitTally(part, 30, paths)
    folds = (tally,) if checkpoints is None else (tally, ConvergenceTally(part, checkpoints))
    seeds = [path_seed(0, k) for k in range(5)]
    args = (catalog_model("stable_ar1"), null_policy(2), NoiseSpec.gaussian(1), InitSpec.fixed([0.0]), 200, seeds)
    classify = mock.patch.object(Partition, "cell_indices", autospec=True, side_effect=Partition.cell_indices)
    with mock.patch.object(dynamics, "JACOBIAN_BLOCK", 40), classify as cell_indices:
        blocks = 0
        for block in closed_loop_blocks(*args):  # 25 blocks of 8 steps
            for fold in folds:
                fold.add(block)
            blocks += 1
    assert blocks == 25 and cell_indices.call_count == calls_per_block * blocks
    assert tally.counts.sum() == 5 * (200 - 30)


# --------------------------------------------------------------------------
# One input per ergodic reader: ``empirical_measure`` and
# ``ergodicity_dispersion`` take the tally alone and ``frequency_convergence``
# the convergence curve alone, the partition and burn-in with them. A run is
# its blocks: only ``simulation._trajectories`` makes trajectories, as views
# of a whole-horizon run's one block, and no ``src/`` function turns a held
# trajectory back into a block (``.block()``); every fold reads blocks.

_READERS = {"empirical_measure", "ergodicity_dispersion", "frequency_convergence"}


def _signatures(source: str, names: set[str]) -> dict[str, str]:
    """``(parameters)`` of each module-level function in ``names``, without
    annotations or defaults."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args]
            params += [f"*{a.vararg.arg}"] if a.vararg else ["*"] if a.kwonlyargs else []
            params += [p.arg for p in a.kwonlyargs] + ([f"**{a.kwarg.arg}"] if a.kwarg else [])
            found[node.name] = f"({', '.join(params)})"
    return found


def test_checker_finds_every_reader_signature():
    source = (
        "def measure(tally: 'VisitTally') -> float:\n    return 1.0\n"
        "def curves(tally, partition=None, *, checkpoints=()):\n    pass\n"
        "def spread(*tallies, **options):\n    pass\n"
        "class Tally:\n    def measure(self):\n        pass\n"
    )
    assert _signatures(source, {"measure", "curves", "spread", "absent"}) == {
        "measure": "(tally)",
        "curves": "(tally, partition, *, checkpoints)",
        "spread": "(*tallies, **options)",
    }


def test_checker_finds_every_block_call():
    source = (
        "def fold(tally, trajs):\n    for traj in trajs:\n        tally.add(traj.block())\n"
        "def export(rows):\n    def block(start):\n        return rows[start:]\n    return map(block, (0, 8))\n"
        "def first(rows):\n    return block(rows)\n"
        "Trajectory.block(None)\n"
    )
    assert _callers(source, "block") == ["fold", "first", "<module>"]
    assert _callers(source, "block", method=True) == ["fold", "<module>"]


def test_checker_finds_every_trajectory_construction():
    source = (
        "def views(block, seeds):\n    return [Trajectory(x=block.x[k]) for k in seeds]\n"
        "def held(sim):\n    return sim.Trajectory(None)\n"
        "def typed(trajs: list[Trajectory]) -> Trajectory:\n    return trajs[0]\n"
        "Trajectory(None)\n"
    )
    assert _callers(source, "Trajectory") == ["views", "held", "<module>"]


def test_the_ergodic_readers_take_the_tally_alone():
    assert _signatures((SRC / "ergodics.py").read_text(), _READERS) == {
        "empirical_measure": "(tally)",
        "ergodicity_dispersion": "(tally)",
        "frequency_convergence": "(curve)",
    }


def _source_callers(called: str, method: bool = False) -> list[str]:
    return [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _callers(path.read_text(), called, method)
    ]


def test_only_the_block_views_construct_a_trajectory():
    assert _source_callers("Trajectory") == ["simulation.py:_trajectories"]


def test_no_source_function_turns_a_trajectory_into_a_block():
    assert _source_callers("block", method=True) == []


# --------------------------------------------------------------------------
# Every config key the CLI reads is documented: each key read by
# ``_Section.get`` (a literal, a key of a literal tuple the call iterates, or
# a literal passed to a function that forwards its first argument to ``get``)
# appears in ``cli.CONFIG_DOC``.

def _config_keys(source: str) -> set[str]:
    tree = ast.parse(source)
    forwarders = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.args.args
        for call in ast.walk(fn)
        if _called_name(call) == "get" and call.args and getattr(call.args[0], "id", None) == fn.args.args[0].arg
    }
    readers = {"get", *forwarders}

    def literals(nodes) -> list[str]:
        return [e.value for e in nodes if isinstance(e, ast.Constant) and isinstance(e.value, str)]

    keys = set()
    for node in ast.walk(tree):
        if _called_name(node) in readers and node.args:
            keys.update(literals(node.args[:1]))
        loops = [(node, node.body)] if isinstance(node, ast.For) else []
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            loops = [(gen, [node.elt]) for gen in node.generators]
        for loop, body in loops:
            target = getattr(loop.target, "id", None)
            for call in (c for part in body for c in ast.walk(part)):
                if _called_name(call) in readers and call.args and getattr(call.args[0], "id", None) == target:
                    keys.update(literals(getattr(loop.iter, "elts", [])))
    return keys


def _config_doc(source: str) -> str:
    [doc] = [
        node.value.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CONFIG_DOC"
    ]
    return doc


def test_checker_finds_every_config_key():
    source = (
        "def build(top, overrides):\n"
        "    def pick(key, kind):\n        return top.get(key, kind) or overrides.get(key)\n"
        "    a = pick('seed', int), top.get('out_dir', str), {}.get(1)\n"
        "    b = [top.get(k, dict) for k in ('model', 'noise')]\n"
        "    c = [k for k in ('spare', 'unread')]\n"
        "    for name in ('bound', 'falsify'):\n        top.get(name, dict)\n"
    )
    assert _config_keys(source) == {"seed", "out_dir", "model", "noise", "bound", "falsify"}


def test_every_config_key_read_is_documented():
    source = (SRC / "cli.py").read_text()
    doc, keys = _config_doc(source), _config_keys(source)
    assert {"seed", "burn_in_fraction", "model", "diagnose", "catalog", "value", "c_p", "checkpoints"} <= keys
    assert sorted(k for k in keys if not re.search(rf"(?<!\w){re.escape(k)}(?!\w)", doc)) == []


# --------------------------------------------------------------------------
# The tracer's names exist: ``perfbench/tracing.py`` wraps names where
# ``quantstab.cli`` and ``quantstab.stabilization_entropy`` look them up (its
# ``patches`` table), wraps attributes of names it imports, and imports names
# from quantstab modules. A name that moves or goes breaks the traced run, so
# each must exist where the tracer looks it up (it keeps, for one,
# ``cli.gamma_falsify`` and ``stabilization_entropy.run_closed_loop`` alive).

TRACING = SRC.parent.parent / "perfbench" / "tracing.py"


def _tracer_lookups(source: str) -> list[str]:
    """``module:name`` for each name imported from a quantstab module, each
    key of the ``patches`` table under the module it patches, and each
    attribute assigned on an imported name. A source without exactly one
    ``patches`` table raises ValueError."""
    tree = ast.parse(source)
    modules, objects = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quantstab"):
            objects.update((alias.asname or alias.name, f"{node.module}:{alias.name}") for alias in node.names)
    [table] = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "patches"
    ]
    found = list(objects.values())
    for module, names in zip(table.keys, table.values):
        found += [f"{modules[module.id]}:{key.value}" for key in names.keys]
    for node in ast.walk(tree):
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) in objects:
            found.append(f"{objects[target.value.id]}.{target.attr}")
    return found


def _missing(lookup: str) -> bool:
    module, _, path = lookup.partition(":")
    obj = importlib.import_module(module)
    for name in path.split("."):
        if not hasattr(obj, name):
            return True
        obj = getattr(obj, name)
    return False


def test_checker_finds_every_tracer_lookup():
    source = (
        "def install(tracer):\n"
        "    import quantstab.cli as cli\n    import quantstab.simulation as sim\n"
        "    from quantstab.dynamics import SystemModel\n"
        "    patches = {cli: {'main': ('cli.main', None)}, sim: {'nothing_here': ('x', None)}}\n"
        "    SystemModel.from_source = tracer.wrap(SystemModel.from_source)\n    SystemModel.spare = None\n"
        "def probe():\n    from quantstab.capacity_bounds import MAX_OVERFLOW_MASS, gone\n"
    )
    lookups = _tracer_lookups(source)
    assert sorted(lookups) == [
        "quantstab.capacity_bounds:MAX_OVERFLOW_MASS",
        "quantstab.capacity_bounds:gone",
        "quantstab.cli:main",
        "quantstab.dynamics:SystemModel",
        "quantstab.dynamics:SystemModel.from_source",
        "quantstab.dynamics:SystemModel.spare",
        "quantstab.simulation:nothing_here",
    ]
    assert sorted(lookup for lookup in lookups if _missing(lookup)) == [
        "quantstab.capacity_bounds:gone",
        "quantstab.dynamics:SystemModel.spare",
        "quantstab.simulation:nothing_here",
    ]
    with pytest.raises(ValueError):  # no patch table
        _tracer_lookups("from quantstab.dynamics import SystemModel\n")


def test_every_name_the_tracer_looks_up_exists():
    lookups = _tracer_lookups(TRACING.read_text())
    assert {
        "quantstab.cli:gamma_falsify",
        "quantstab.stabilization_entropy:run_closed_loop",
        "quantstab.dynamics:SystemModel.from_source",
        "quantstab.dynamics:log2_abs_det_many",
        "quantstab.simulation:audit_causality",
        "quantstab.simulation:replay_consistent",
        "quantstab.capacity_bounds:MAX_OVERFLOW_MASS",
    } <= set(lookups)
    assert [lookup for lookup in lookups if _missing(lookup)] == []
