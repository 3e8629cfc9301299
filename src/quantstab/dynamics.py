"""System models and the coordinate-subset machinery behind the capacity bounds.

A :class:`SystemModel` packages the one-step map ``x' = f(x, w) + B u``,
compiled from the expression DSL together with its exact Jacobian. Coordinate
subsets select the sub-dynamics whose Jacobian determinant enters the refined
bound; declared determinant floors can be probed (never certified) by
randomized sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .model_dsl import ExprAst, ModelSource, compile_exprs, differentiate, parse_model

__all__ = [
    "SystemModel",
    "IndexSubset",
    "GammaDeclaration",
    "SingularMatrixError",
    "BelowFloorError",
    "NonFiniteMatrixError",
    "FalsificationResult",
    "catalog_model",
    "catalog_names",
    "permute_state",
    "inverse_permute",
    "subset_map",
    "subset_jacobian",
    "log2_abs_det",
    "log2_abs_det_many",
    "gamma_falsify",
    "falsify_floors",
    "sample_pass",
    "default_falsification_sampler",
    "finite_difference_jacobian",
    "JACOBIAN_BLOCK",
]

_DET_FLOOR = 1e-300
# rows per Jacobian evaluation in sample_pass: memory grows with the block,
# not with the sample count. At 8,192 rows a float64 column is 64 KiB and an
# n = 2 Jacobian stack 256 KiB, so the next block can reuse the heap memory
# the last one freed
JACOBIAN_BLOCK = 8_192
_LOG2 = math.log(2.0)


class SingularMatrixError(ArithmeticError):
    """A determinant failed: |det| fell below 1e-300, or it overflowed and
    ``slogdet`` found the matrix singular; raised instead of silently
    returning -inf."""

    def __init__(self, message: str, index: Optional[int] = None):
        self.index = index
        super().__init__(message)


class BelowFloorError(SingularMatrixError):
    """|det| fell below 1e-300. In a stack of matrices the first such slice
    is reported before any other failed determinant."""


class NonFiniteMatrixError(SingularMatrixError, ValueError):
    """The matrix has inf or nan entries, so |det| is undefined. It is a
    failed determinant like a singular one, and a ``ValueError`` as well."""


# --------------------------------------------------------------------------
# System model

class SystemModel:
    """One-step dynamics ``f(x, w)`` plus control matrix B, compiled from DSL
    expressions with their symbolic Jacobian.

    Instances are immutable after construction and safe to share across
    parallel workers.
    """

    def __init__(
        self,
        *,
        name: str,
        n: int,
        control_dim: int,
        noise_dim: int,
        b: np.ndarray,
        f_fn: Callable,
        jac_fn: Callable,
        exprs: tuple[ExprAst, ...],
    ):
        self.name = name
        self.n = n
        self.control_dim = control_dim
        self.noise_dim = noise_dim
        self.b = np.asarray(b, dtype=float).reshape(n, control_dim)
        self.b_pinv = np.linalg.pinv(self.b)
        self._f_fn = f_fn
        self._jac_fn = jac_fn
        self.exprs = exprs

    @classmethod
    def from_source(cls, source: ModelSource, name: str = "dsl") -> "SystemModel":
        """Build from a parsed declaration; Jacobian by symbolic differentiation."""
        f_fn = compile_exprs(source.exprs, source.n, source.noise_dim, name="_f")
        jac_entries = tuple(
            differentiate(expr, j + 1) for expr in source.exprs for j in range(source.n)
        )
        jac_fn = compile_exprs(jac_entries, source.n, source.noise_dim, name="_jac")
        return cls(
            name=name,
            n=source.n,
            control_dim=source.control_dim,
            noise_dim=source.noise_dim,
            b=source.b,
            f_fn=f_fn,
            jac_fn=jac_fn,
            exprs=source.exprs,
        )

    @classmethod
    def from_text(cls, text: str, name: str = "dsl") -> "SystemModel":
        return cls.from_source(parse_model(text), name=name)

    # -- evaluation: each compiled function at one point or on columns -----

    def _point(self, fn: Callable, x: Sequence[float], w: Sequence[float]) -> tuple:
        """``fn`` at one point, on floats: a zero denominator raises
        ``ZeroDivisionError``, wrong dimensions ``ValueError``."""
        if len(x) != self.n or len(w) != self.noise_dim:
            raise ValueError(
                f"expected state dim {self.n} and noise dim {self.noise_dim}, "
                f"got {len(x)} and {len(w)}"
            )
        return fn(*(float(v) for v in x), *(float(v) for v in w))

    def _columns(self, fn: Callable, xs: np.ndarray, ws: np.ndarray, width: int) -> np.ndarray:
        """``fn`` on the columns of ``xs`` and ``ws`` in one call, as an (m,
        ``width``) array; constant entries broadcast. A row that divides by
        zero or overflows comes back non-finite; a constant subexpression
        that raises fails in every row, so then every entry is inf."""
        try:
            cols = fn(*xs.T, *ws.T)
        except (ZeroDivisionError, OverflowError):
            return np.full((xs.shape[0], width), np.inf)
        out = np.empty((xs.shape[0], width))
        for i, col in enumerate(cols):
            out[:, i] = col
        return out

    def f(self, x: Sequence[float], w: Sequence[float] = ()) -> np.ndarray:
        """``f(x, w)`` at one point, shape (n,)."""
        return np.array(self._point(self._f_fn, x, w))

    def f_raw(self, *scalars: float) -> tuple:
        """Hot-loop entry: positional x then w floats, returns a tuple."""
        return self._f_fn(*scalars)

    def f_many(self, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Vectorized map over rows of ``xs`` (m, n) and ``ws`` (m, noise_dim);
        ``ws`` may also be one row (1, noise_dim) shared by every state row.
        Same bits as :meth:`f` row by row, where :meth:`f` does not raise."""
        return self._columns(self._f_fn, xs, ws, self.n)

    def control_effect(self, us: np.ndarray) -> np.ndarray:
        """``B u`` for each row of ``us`` (m, control_dim), as stacked
        matrix-vector products: these round as ``B @ u`` on one row does,
        ``us @ B.T`` need not."""
        return (self.b @ us[:, :, None])[:, :, 0]

    def step_many(self, xs: np.ndarray, ws: np.ndarray, us: np.ndarray) -> np.ndarray:
        """The transition ``f(x, w) + B u`` for each row."""
        return self.f_many(xs, ws) + self.control_effect(us)

    def jacobian(self, x: Sequence[float], w: Sequence[float] = ()) -> np.ndarray:
        """Jacobian of ``x -> f(x, w)`` at one point, shape (n, n); fails as :meth:`f` does."""
        return np.array(self._point(self._jac_fn, x, w)).reshape(self.n, self.n)

    def jacobian_many(self, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Stacked Jacobians over sample rows, shape (m, n, n); fail as :meth:`f_many` does."""
        return self._columns(self._jac_fn, xs, ws, self.n * self.n).reshape(-1, self.n, self.n)

    def __repr__(self) -> str:
        return (
            f"SystemModel({self.name!r}, n={self.n}, controls={self.control_dim}, "
            f"noise={self.noise_dim})"
        )


def finite_difference_jacobian(
    model: SystemModel, x: np.ndarray, w: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central-difference Jacobian of f(., w), column by column: a reference
    for the exact Jacobian."""
    n = model.n
    out = np.empty((n, n))
    for j in range(n):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        out[:, j] = (model.f(hi, w) - model.f(lo, w)) / (2.0 * step)
    return out


# --------------------------------------------------------------------------
# Built-in catalog, written in the model DSL

_CATALOG = {
    # 2-d linear, one expanding and one contracting axis, additive noise on both
    "example1": """
        states 2
        noise 2
        x1' = 2*x1 + w1
        x2' = 0.5*x2 + w2
    """,
    # cubic expansion in x1 coupled to a stable x2 driven by scalar noise
    "example2": """
        states 2
        noise 1
        x1' = (x1^3 + x1) * (1 + x2^2)
        x2' = 0.5*x2 + w1
    """,
    "scalar_doubling": """
        states 1
        noise 1
        x1' = 2*x1 + w1
    """,
    "stable_ar1": """
        states 1
        noise 1
        x1' = 0.5*x1 + w1
    """,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog_model(name: str) -> SystemModel:
    """Instantiate a built-in model; shares the DSL-model interface."""
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog model {name!r}; available: {', '.join(_CATALOG)}")
    return SystemModel.from_text(_CATALOG[name], name=name)


# --------------------------------------------------------------------------
# Coordinate subsets

@dataclass(frozen=True)
class IndexSubset:
    """Strictly increasing 1-based coordinate indices with optional floor c_p."""

    p: tuple[int, ...]
    n: int
    c_p: Optional[float] = None

    def __post_init__(self):
        p = tuple(int(i) for i in self.p)
        object.__setattr__(self, "p", p)
        if not p:
            raise ValueError("index subset must be nonempty")
        if any(b <= a for a, b in zip(p, p[1:])):
            raise ValueError(f"indices must be strictly increasing, got {p}")
        if p[0] < 1 or p[-1] > self.n:
            raise ValueError(f"indices {p} out of range 1..{self.n}")
        if self.c_p is not None and self.c_p <= 0:
            raise ValueError(f"determinant floor must be positive, got {self.c_p}")

    @property
    def z(self) -> tuple[int, ...]:
        """Complement indices, increasing."""
        members = set(self.p)
        return tuple(i for i in range(1, self.n + 1) if i not in members)

    @property
    def size(self) -> int:
        return len(self.p)

    @property
    def p0(self) -> np.ndarray:
        return np.asarray(self.p, dtype=int) - 1

    @property
    def z0(self) -> np.ndarray:
        return np.asarray(self.z, dtype=int) - 1


@dataclass(frozen=True)
class GammaDeclaration:
    """User-declared family of subsets claimed to have determinant floors.

    Membership is asserted by the user; the toolkit can only falsify it (see
    :func:`gamma_falsify`), never certify it.
    """

    subsets: tuple[IndexSubset, ...]

    def __post_init__(self):
        subsets = tuple(self.subsets)
        object.__setattr__(self, "subsets", subsets)
        if not subsets:
            raise ValueError("Gamma declaration must contain at least one subset")
        seen = set()
        for s in subsets:
            if s.p in seen:
                raise ValueError(f"duplicate subset {s.p} in Gamma declaration")
            seen.add(s.p)
            if s.c_p is not None and not (0.0 < s.c_p <= 1.0):
                raise ValueError(f"declared floor for {s.p} must lie in (0, 1], got {s.c_p}")

    def __iter__(self):
        return iter(self.subsets)


def permute_state(subset: IndexSubset, x: Sequence[float]) -> np.ndarray:
    """Reorder so the subset coordinates come first, complement after."""
    x = np.asarray(x, dtype=float)
    if x.shape != (subset.n,):
        raise ValueError(f"expected state of dimension {subset.n}, got shape {x.shape}")
    return np.concatenate([x[subset.p0], x[subset.z0]])


def inverse_permute(subset: IndexSubset, v: Sequence[float]) -> np.ndarray:
    """Undo :func:`permute_state`: scatter leading entries back to subset slots."""
    v = np.asarray(v, dtype=float)
    if v.shape != (subset.n,):
        raise ValueError(f"expected vector of dimension {subset.n}, got shape {v.shape}")
    out = np.empty(subset.n)
    out[subset.p0] = v[: subset.size]
    out[subset.z0] = v[subset.size:]
    return out


def subset_map(
    model: SystemModel,
    subset: IndexSubset,
    xp: Sequence[float],
    xz: Sequence[float],
    w: Sequence[float] = (),
) -> np.ndarray:
    """Sub-dynamics on the subset coordinates with the complement held fixed."""
    xp = np.asarray(xp, dtype=float)
    xz = np.asarray(xz, dtype=float)
    if xp.shape != (subset.size,) or xz.shape != (subset.n - subset.size,):
        raise ValueError(
            f"expected {subset.size} subset and {subset.n - subset.size} complement "
            f"coordinates, got shapes {xp.shape} and {xz.shape}"
        )
    full = inverse_permute(subset, np.concatenate([xp, xz]))
    return model.f(full, w)[subset.p0]


def subset_jacobian(
    model: SystemModel, subset: IndexSubset, x: Sequence[float], w: Sequence[float] = ()
) -> np.ndarray:
    """Partials of the sub-dynamics w.r.t. its own coordinates, at full state x."""
    jac = model.jacobian(x, w)
    return jac[np.ix_(subset.p0, subset.p0)]


# --------------------------------------------------------------------------
# Log-determinants

def _abs_dets(mats: np.ndarray, block: np.ndarray) -> np.ndarray:
    """|det| of the ``block`` x ``block`` principal submatrix of each stacked
    matrix: the closed form ``|a|`` or ``|a d - b c|`` on strided views for a
    block of one or two indices, LU (``np.linalg.det``) for larger blocks.
    A row whose closed form is not finite (an overflowed product, or
    ``inf - inf``) is computed again by LU. Entries may be inf or nan where
    LU overflows or the matrix has non-finite entries.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if len(block) > 2:
            if not np.array_equal(block, np.arange(mats.shape[-1])):
                mats = mats[:, block[:, None], block[None, :]]
            return np.abs(np.linalg.det(mats))
        i, j = block[0], block[-1]
        if len(block) == 1:
            dets = np.abs(mats[:, i, i])
        else:
            dets = mats[:, i, i] * mats[:, j, j]
            dets -= mats[:, i, j] * mats[:, j, i]
            np.abs(dets, out=dets)
        redo = np.nonzero(~np.isfinite(dets))[0]
        if len(redo):
            dets[redo] = np.abs(np.linalg.det(mats[redo][:, block[:, None], block[None, :]]))
    return dets


def _slogdet_log2(mat: np.ndarray, index: int) -> float:
    """log2 |det| of one matrix whose determinant overflowed double range."""
    if not np.all(np.isfinite(mat)):
        raise NonFiniteMatrixError(f"matrix has non-finite entries at sample {index}", index)
    sign, logabs = np.linalg.slogdet(mat)
    if sign == 0.0:
        raise SingularMatrixError(f"matrix is singular at sample {index}", index=index)
    return float(logabs / _LOG2)


def log2_abs_det_many(mats: np.ndarray, block: Optional[Sequence[int]] = None) -> np.ndarray:
    """Base-2 log of |det| of each stacked matrix, or of its principal
    submatrix on the 0-based indices ``block``; raises
    :class:`BelowFloorError` naming the first slice with |det| below 1e-300.
    Failing that, it raises for the first slice whose determinant overflowed
    and cannot be taken by ``slogdet``: :class:`NonFiniteMatrixError` for
    non-finite entries, :class:`SingularMatrixError` for a singular one.

    Blocks of one or two indices take the closed form on views of the stacked
    matrices, with no copy; per matrix it agrees with ``np.linalg.det`` (LU)
    to about an ulp, and is exact on small integer entries.
    """
    mats = np.asarray(mats, dtype=float)
    block = np.arange(mats.shape[-1]) if block is None else np.asarray(block, dtype=int)
    dets = _abs_dets(mats, block)
    small = dets < _DET_FLOOR  # false for nan and inf
    if np.any(small):
        i = int(np.argmax(small))
        raise BelowFloorError(f"|det| below 1e-300 at sample {i}", index=i)
    finite = np.isfinite(dets)
    out = np.log2(dets, where=finite, out=np.empty(len(dets)))
    for i in np.nonzero(~finite)[0]:
        out[i] = _slogdet_log2(mats[i][np.ix_(block, block)], int(i))
    return out


def log2_abs_det(mat: np.ndarray) -> float:
    """Base-2 log of |det|; singular input is a hard error. The one-row case
    of :func:`log2_abs_det_many`, to the same bits."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    return float(log2_abs_det_many(mat[None])[0])


# --------------------------------------------------------------------------
# Randomized falsification of declared determinant floors

@dataclass(frozen=True)
class FalsificationResult:
    """Outcome of sampling |det| of a subset Jacobian against a claimed floor.

    A falsified floor reports its first counterexample: the lowest sample row
    with |det| <= ``c_p``, its |det|, (x, w) and ``n_samples`` = that row + 1.
    A floor that holds reports the minimum |det| over all ``n_samples`` rows
    at the first row where it occurs. ``falsified=False`` never certifies the
    floor; it only reports that no sampled point violated it.
    """

    subset: IndexSubset
    falsified: bool
    min_abs_det: float
    at_x: np.ndarray
    at_w: np.ndarray
    n_samples: int


def sample_pass(
    model: SystemModel, sample: Callable, n: int, n_live: int, visit: Callable
) -> None:
    """Draw ``n`` (x, w) rows as ``sample(count)``, ``JACOBIAN_BLOCK`` at a
    time, evaluate each block's Jacobians once and call ``visit(k, start, xs,
    ws, jacs)`` for each live reduction k < ``n_live``; ``start`` is the
    block's first row. A visit that returns true retires k; nothing is drawn
    once none is live. numpy's floating-point warnings are off: a zero
    denominator or an overflow leaves a non-finite entry, which each
    reduction reports as its own outcome.
    """
    live = list(range(n_live))
    start = 0
    with np.errstate(all="ignore"):
        while live and start < n:
            xs, ws = sample(min(JACOBIAN_BLOCK, n - start))
            jacs = model.jacobian_many(xs, ws)
            live = [k for k in live if not visit(k, start, xs, ws, jacs)]
            start += len(xs)
            del xs, ws, jacs  # free the block before the next is drawn


_Seed = Union[int, Sequence[int]]
_Sample = Callable[[int], tuple[np.ndarray, np.ndarray]]  # sample(count) -> (xs, ws)


def default_falsification_sampler(
    model: SystemModel, halfwidth: float = 100.0, cauchy_fraction: float = 0.1
) -> Callable[[_Seed], _Sample]:
    """``stream(seed)`` gives ``sample(count)``, the next ``count`` (x, w)
    rows of a box [-halfwidth, halfwidth] with a Cauchy share that probes the
    origin and far tails. ``SeedSequence(seed)`` spawns three generators, each
    read in row order: every row's N + K box coordinates, one uniform per row
    that makes it a Cauchy row with probability ``cauchy_fraction``, and a
    Cauchy row's N + K values. So no row depends on the call sizes.
    """
    if not (halfwidth > 0.0 and math.isfinite(2.0 * halfwidth)):  # the box width rng.uniform takes
        raise ValueError(f"box halfwidth must be positive and 2 * halfwidth finite, got {halfwidth}")
    if not 0.0 <= cauchy_fraction <= 1.0:
        raise ValueError(f"Cauchy fraction must lie in [0, 1], got {cauchy_fraction}")
    dim = model.n + model.noise_dim

    def stream(seed: _Seed) -> _Sample:
        box_rng, pick_rng, cauchy_rng = (
            np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
        )

        def sample(count: int) -> tuple[np.ndarray, np.ndarray]:
            rows = box_rng.uniform(-halfwidth, halfwidth, (count, dim))
            heavy = pick_rng.random(count) < cauchy_fraction
            rows[heavy] = cauchy_rng.standard_cauchy((np.count_nonzero(heavy), dim))
            return rows[:, : model.n], rows[:, model.n :]

        return sample

    return stream


def falsify_floors(
    model: SystemModel,
    subsets: Sequence[IndexSubset],
    sampler: Optional[Callable[[_Seed], _Sample]] = None,
    n: int = 100_000,
    seed: _Seed = 0,
) -> list[FalsificationResult]:
    """Search the first ``n`` rows of ``sampler(seed)`` for a point with
    |det| <= each subset's floor.

    One :func:`sample_pass`, the pass of the Monte Carlo bound: every subset
    still searching reads its block off each block's Jacobians, and stops at
    its first counterexample. The sampler's stream, not the block size,
    fixes the rows, so each result (see :class:`FalsificationResult`) is the
    one a search of the whole draw for that subset alone would give.
    """
    subsets = list(subsets)
    if n < 1:
        raise ValueError("need at least one sample")
    for subset in subsets:
        if subset.c_p is None:
            raise ValueError(f"subset {subset.p} has no declared floor to falsify")
    if sampler is None:
        sampler = default_falsification_sampler(model)
    found: list = [None] * len(subsets)  # (min |det|, its x, its w)
    drawn = [n] * len(subsets)

    def search(k, start, xs, ws, jacs):
        dets = _abs_dets(jacs, subsets[k].p0)
        dets[~np.isfinite(dets)] = math.inf
        below = dets <= subsets[k].c_p
        i = int(np.argmax(below)) if below.any() else int(np.argmin(dets))
        # the first block records a point even if no |det| in it is finite
        if found[k] is None or dets[i] < found[k][0]:
            found[k] = (float(dets[i]), xs[i].copy(), ws[i].copy())
        if below[i]:
            drawn[k] = start + i + 1
        return bool(below[i])

    sample_pass(model, sampler(seed), n, len(subsets), search)
    return [
        FalsificationResult(s, f[0] <= s.c_p, *f, d) for s, f, d in zip(subsets, found, drawn)
    ]


def gamma_falsify(
    model: SystemModel,
    subset: IndexSubset,
    sampler: Optional[Callable[[_Seed], _Sample]] = None,
    n: int = 100_000,
    seed: _Seed = 0,
) -> FalsificationResult:
    """Search for a sampled point with |det| <= the declared floor: the
    one-subset case of :func:`falsify_floors`.

    Returns the first counterexample (the lowest sample row that breaks the
    floor), otherwise the minimum determinant magnitude observed over all n
    samples.
    """
    return falsify_floors(model, [subset], sampler, n, seed)[0]
