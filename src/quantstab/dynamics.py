"""System models and the coordinate-subset machinery behind the capacity bounds.

A :class:`SystemModel` packages the one-step map ``x' = f(x, w) + B u`` with a
Jacobian provider (exact via the expression DSL, or central finite differences
for opaque callables). Coordinate subsets select the sub-dynamics whose
Jacobian determinant enters the refined bound; declared determinant floors can
be probed (never certified) by randomized sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model_dsl import ExprAst, ModelSource, compile_exprs, differentiate, parse_model

__all__ = [
    "SystemModel",
    "IndexSubset",
    "GammaDeclaration",
    "SingularMatrixError",
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
    "default_falsification_sampler",
    "finite_difference_jacobian",
]

_DET_FLOOR = 1e-300
_LOG2 = math.log(2.0)


class SingularMatrixError(ArithmeticError):
    """|det| fell below 1e-300; raised instead of silently returning -inf."""

    def __init__(self, message: str, index: Optional[int] = None):
        self.index = index
        super().__init__(message)


class NonFiniteMatrixError(SingularMatrixError, ValueError):
    """The matrix has inf or nan entries, so |det| is undefined. It is a
    failed determinant like a singular one, and a ``ValueError`` as well."""


# --------------------------------------------------------------------------
# System model

class SystemModel:
    """One-step dynamics ``f(x, w)`` plus control matrix B and a Jacobian provider.

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
        jac_fn: Optional[Callable],
        exprs: Optional[tuple[ExprAst, ...]] = None,
        fd_step: float = 1e-5,
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
        self.fd_step = fd_step
        self.jacobian_kind = "symbolic" if jac_fn is not None else "finite-diff"

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

    @classmethod
    def from_callable(
        cls,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        *,
        n: int,
        control_dim: int,
        noise_dim: int,
        b: np.ndarray,
        name: str = "opaque",
        fd_step: float = 1e-5,
    ) -> "SystemModel":
        """Wrap an opaque evaluator; Jacobian falls back to central differences."""

        def f_fn(*args):
            x = np.array(args[:n], dtype=float)
            w = np.array(args[n:], dtype=float)
            return tuple(np.asarray(fn(x, w), dtype=float))

        return cls(
            name=name,
            n=n,
            control_dim=control_dim,
            noise_dim=noise_dim,
            b=b,
            f_fn=f_fn,
            jac_fn=None,
            fd_step=fd_step,
        )

    # -- evaluation ---------------------------------------------------------

    def f(self, x: Sequence[float], w: Sequence[float] = ()) -> np.ndarray:
        if len(x) != self.n or len(w) != self.noise_dim:
            raise ValueError(
                f"expected state dim {self.n} and noise dim {self.noise_dim}, "
                f"got {len(x)} and {len(w)}"
            )
        return np.array(self._f_fn(*(float(v) for v in x), *(float(v) for v in w)))

    def f_raw(self, *scalars: float) -> tuple:
        """Hot-loop entry: positional x then w floats, returns a tuple."""
        return self._f_fn(*scalars)

    def f_many(self, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Vectorized map over rows of ``xs`` (m, n) and ``ws`` (m, noise_dim);
        ``ws`` may also be one row (1, noise_dim) shared by every state row.

        DSL models evaluate column arrays in one call, to the same bits as the
        scalar evaluation; opaque models are evaluated row by row. A row whose
        evaluation raises ``ZeroDivisionError`` or ``OverflowError`` comes back
        as inf; a DSL row that divides by zero or overflows comes back
        non-finite as well.
        """
        if self.exprs is not None:
            try:
                cols = self._f_fn(*xs.T, *ws.T)
            except (ZeroDivisionError, OverflowError):
                pass  # a constant subexpression failed; it fails in every row
            else:
                out = np.empty((xs.shape[0], self.n))
                for i, col in enumerate(cols):
                    out[:, i] = col  # constant coordinates broadcast
                return out
        out = np.empty((xs.shape[0], self.n))
        ws = np.broadcast_to(ws, (xs.shape[0], self.noise_dim))
        for k in range(xs.shape[0]):
            try:
                out[k] = self._f_fn(*xs[k].tolist(), *ws[k].tolist())
            except (ZeroDivisionError, OverflowError):
                out[k] = np.inf
        return out

    def control_effect(self, us: np.ndarray) -> np.ndarray:
        """``B u`` for each row of ``us`` (m, control_dim), as stacked
        matrix-vector products: these round as ``B @ u`` on one row does,
        ``us @ B.T`` need not."""
        return (self.b @ us[:, :, None])[:, :, 0]

    def step_many(self, xs: np.ndarray, ws: np.ndarray, us: np.ndarray) -> np.ndarray:
        """The transition ``f(x, w) + B u`` for each row."""
        return self.f_many(xs, ws) + self.control_effect(us)

    def jacobian(self, x: Sequence[float], w: Sequence[float] = ()) -> np.ndarray:
        """Full Jacobian of ``x -> f(x, w)`` at the point, shape (n, n)."""
        if self._jac_fn is None:
            return finite_difference_jacobian(self, np.asarray(x, float), np.asarray(w, float), self.fd_step)
        vals = self._jac_fn(*(float(v) for v in x), *(float(v) for v in w))
        return np.array(vals).reshape(self.n, self.n)

    def jacobian_many(self, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Stacked Jacobians over sample rows, shape (m, n, n)."""
        m = xs.shape[0]
        if self._jac_fn is None:
            out = np.empty((m, self.n, self.n))
            for i in range(m):
                out[i] = finite_difference_jacobian(self, xs[i], ws[i], self.fd_step)
            return out
        vals = self._jac_fn(
            *(xs[:, i] for i in range(self.n)), *(ws[:, j] for j in range(self.noise_dim))
        )
        out = np.empty((m, self.n, self.n))
        for k, entry in enumerate(vals):
            out[:, k // self.n, k % self.n] = entry  # constant entries broadcast
        return out

    def __repr__(self) -> str:
        return (
            f"SystemModel({self.name!r}, n={self.n}, controls={self.control_dim}, "
            f"noise={self.noise_dim}, jacobian={self.jacobian_kind})"
        )


def finite_difference_jacobian(
    model: SystemModel, x: np.ndarray, w: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central-difference Jacobian of f(., w), column by column."""
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
    :class:`SingularMatrixError` naming the first slice with |det| below
    1e-300, and :class:`NonFiniteMatrixError` for one with non-finite entries.

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
        raise SingularMatrixError(f"|det| below 1e-300 at sample {i}", index=i)
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

    ``falsified=False`` never certifies the floor; it only reports that no
    sampled point violated it.
    """

    subset: IndexSubset
    falsified: bool
    min_abs_det: float
    at_x: np.ndarray
    at_w: np.ndarray
    n_samples: int

    @property
    def counterexample(self) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
        return (self.at_x, self.at_w, self.min_abs_det) if self.falsified else None


def default_falsification_sampler(
    model: SystemModel, halfwidth: float = 100.0, cauchy_fraction: float = 0.1
) -> Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]:
    """Uniform box sampler over [-halfwidth, halfwidth] with a heavy-tail share.

    The Cauchy rows probe both the neighbourhood of the origin and far tails,
    since a floor claim quantifies over all of R^N x W.
    """
    if not halfwidth > 0.0:
        raise ValueError(f"box halfwidth must be positive, got {halfwidth}")
    if not 0.0 <= cauchy_fraction <= 1.0:
        raise ValueError(f"Cauchy fraction must lie in [0, 1], got {cauchy_fraction}")

    def sample(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        xs = rng.uniform(-halfwidth, halfwidth, (count, model.n))
        ws = rng.uniform(-halfwidth, halfwidth, (count, model.noise_dim))
        k = int(round(count * cauchy_fraction))
        if k:
            xs[:k] = rng.standard_cauchy((k, model.n))
            if model.noise_dim:
                ws[:k] = rng.standard_cauchy((k, model.noise_dim))
        return xs, ws

    return sample


def falsify_floors(
    model: SystemModel,
    subsets: Sequence[IndexSubset],
    sampler: Optional[Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]] = None,
    n: int = 100_000,
    seed: int = 0,
    chunk: int = 20_000,
) -> list[FalsificationResult]:
    """Search one sample set for a point with |det| <= each subset's floor.

    Each chunk of samples is drawn once and its full Jacobians evaluated
    once; every subset still searching reads its block off them. A subset
    stops at the chunk holding its first counterexample (``n_samples`` counts
    the samples drawn up to then), otherwise it reports the minimum
    determinant magnitude over all n samples. The pass ends when every subset
    has stopped or n samples are drawn, so each result is the one a pass for
    that subset alone would give.
    """
    subsets = list(subsets)
    if n < 1:
        raise ValueError("need at least one sample")
    for subset in subsets:
        if subset.c_p is None:
            raise ValueError(f"subset {subset.p} has no declared floor to falsify")
    if sampler is None:
        sampler = default_falsification_sampler(model)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    best = [math.inf] * len(subsets)
    at: list = [(None, None)] * len(subsets)
    results: list[Optional[FalsificationResult]] = [None] * len(subsets)
    live = list(range(len(subsets)))
    done = 0
    while done < n and live:
        count = min(chunk, n - done)
        xs, ws = sampler(rng, count)
        jacs = model.jacobian_many(xs, ws)
        for k in list(live):
            subset = subsets[k]
            dets = _abs_dets(jacs, subset.p0)
            dets[~np.isfinite(dets)] = math.inf
            i = int(np.argmin(dets))
            if dets[i] < best[k]:
                best[k] = float(dets[i])
                at[k] = (xs[i].copy(), ws[i].copy())
            if best[k] <= subset.c_p:
                results[k] = FalsificationResult(subset, True, best[k], *at[k], done + count)
                live.remove(k)
        done += count
    for k in live:
        results[k] = FalsificationResult(subsets[k], False, best[k], *at[k], n)
    return results


def gamma_falsify(
    model: SystemModel,
    subset: IndexSubset,
    sampler: Optional[Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]] = None,
    n: int = 100_000,
    seed: int = 0,
    chunk: int = 20_000,
) -> FalsificationResult:
    """Search for a sampled point with |det| <= the declared floor: the
    one-subset case of :func:`falsify_floors`.

    Returns the first counterexample found, otherwise the minimum determinant
    magnitude observed over all n samples.
    """
    return falsify_floors(model, [subset], sampler, n, seed, chunk)[0]
