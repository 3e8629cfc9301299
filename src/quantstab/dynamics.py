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
        """Vectorized map over rows of ``xs`` (m, n) and ``ws`` (m, noise_dim).

        DSL models evaluate column arrays in one call; opaque models are
        evaluated row by row. A row whose evaluation raises
        ``ZeroDivisionError`` or ``OverflowError`` comes back as inf, as numpy
        arithmetic leaves a DSL row that divides by zero or overflows.
        """
        if self.exprs is not None:
            try:
                cols = self._f_fn(
                    *(xs[:, i] for i in range(self.n)), *(ws[:, j] for j in range(self.noise_dim))
                )
            except (ZeroDivisionError, OverflowError):
                pass  # a constant subexpression failed; it fails in every row
            else:
                out = np.empty((xs.shape[0], self.n))
                for i, col in enumerate(cols):
                    out[:, i] = col  # constant coordinates broadcast
                return out
        out = np.empty((xs.shape[0], self.n))
        for k in range(xs.shape[0]):
            try:
                out[k] = self._f_fn(*xs[k].tolist(), *ws[k].tolist())
            except (ZeroDivisionError, OverflowError):
                out[k] = np.inf
        return out

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
# Built-in catalog (ASTs constructed directly, not via the parser)

from .model_dsl import Add, Const, Mul, NoiseVar, Pow, StateVar  # noqa: E402


def _x(i: int) -> StateVar:
    return StateVar(i)


def _w(j: int) -> NoiseVar:
    return NoiseVar(j)


def _catalog_sources() -> dict[str, ModelSource]:
    return {
        # 2-d linear, one expanding and one contracting axis, additive noise on both
        "example1": ModelSource(
            n=2,
            control_dim=2,
            noise_dim=2,
            b=np.eye(2),
            exprs=(
                Add(Mul(Const(2.0), _x(1)), _w(1)),
                Add(Mul(Const(0.5), _x(2)), _w(2)),
            ),
        ),
        # cubic expansion in x1 coupled to a stable x2 driven by scalar noise
        "example2": ModelSource(
            n=2,
            control_dim=2,
            noise_dim=1,
            b=np.eye(2),
            exprs=(
                Mul(Add(Pow(_x(1), 3), _x(1)), Add(Const(1.0), Pow(_x(2), 2))),
                Add(Mul(Const(0.5), _x(2)), _w(1)),
            ),
        ),
        "scalar_doubling": ModelSource(
            n=1,
            control_dim=1,
            noise_dim=1,
            b=np.array([[1.0]]),
            exprs=(Add(Mul(Const(2.0), _x(1)), _w(1)),),
        ),
        "stable_ar1": ModelSource(
            n=1,
            control_dim=1,
            noise_dim=1,
            b=np.array([[1.0]]),
            exprs=(Add(Mul(Const(0.5), _x(1)), _w(1)),),
        ),
    }


def catalog_names() -> tuple[str, ...]:
    return tuple(_catalog_sources())


def catalog_model(name: str) -> SystemModel:
    """Instantiate a built-in model; shares the DSL-model interface."""
    sources = _catalog_sources()
    if name not in sources:
        raise KeyError(f"unknown catalog model {name!r}; available: {', '.join(sources)}")
    return SystemModel.from_source(sources[name], name=name)


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


def subset_jacobian_many(
    model: SystemModel, subset: IndexSubset, xs: np.ndarray, ws: np.ndarray
) -> np.ndarray:
    jac = model.jacobian_many(xs, ws)
    return jac[:, subset.p0[:, None], subset.p0[None, :]]


# --------------------------------------------------------------------------
# Log-determinants

def log2_abs_det(mat: np.ndarray) -> float:
    """Base-2 log of |det|, via LU; singular input is a hard error."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore"):
        det = np.linalg.det(mat)
    if np.isfinite(det):
        if abs(det) < _DET_FLOOR:
            raise SingularMatrixError(f"|det| = {abs(det):.3e} below 1e-300")
        return float(np.log2(abs(det)))
    # determinant overflowed double range; recover the magnitude from slogdet
    sign, logabs = np.linalg.slogdet(mat)
    if sign == 0.0:
        raise SingularMatrixError("matrix is singular")
    return float(logabs / _LOG2)


def log2_abs_det_many(mats: np.ndarray) -> np.ndarray:
    """Stacked version of :func:`log2_abs_det`; raises on the first singular slice."""
    mats = np.asarray(mats, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(mats)
    bad = ~np.isfinite(dets)
    out = np.empty(len(dets))
    finite = ~bad
    small = np.zeros(len(dets), dtype=bool)
    small[finite] = np.abs(dets[finite]) < _DET_FLOOR
    if np.any(small):
        i = int(np.argmax(small))
        raise SingularMatrixError(f"|det| below 1e-300 at sample {i}", index=i)
    out[finite] = np.log2(np.abs(dets[finite]))
    for i in np.nonzero(bad)[0]:
        out[i] = log2_abs_det(mats[i])
    return out


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


def gamma_falsify(
    model: SystemModel,
    subset: IndexSubset,
    sampler: Optional[Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]] = None,
    n: int = 100_000,
    seed: int = 0,
    chunk: int = 20_000,
) -> FalsificationResult:
    """Search for a sampled point with |det| <= the declared floor.

    Returns the first counterexample found, otherwise the minimum determinant
    magnitude observed over all n samples.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if subset.c_p is None:
        raise ValueError(f"subset {subset.p} has no declared floor to falsify")
    if sampler is None:
        sampler = default_falsification_sampler(model)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    best = math.inf
    best_x = best_w = None
    done = 0
    while done < n:
        count = min(chunk, n - done)
        xs, ws = sampler(rng, count)
        jacs = subset_jacobian_many(model, subset, xs, ws)
        dets = np.abs(np.linalg.det(jacs))
        dets = np.where(np.isfinite(dets), dets, math.inf)
        i = int(np.argmin(dets))
        if dets[i] < best:
            best = float(dets[i])
            best_x, best_w = xs[i].copy(), ws[i].copy()
        if best <= subset.c_p:
            return FalsificationResult(
                subset=subset,
                falsified=True,
                min_abs_det=best,
                at_x=best_x,
                at_w=best_w,
                n_samples=done + count,
            )
        done += count
    return FalsificationResult(
        subset=subset,
        falsified=False,
        min_abs_det=best,
        at_x=best_x,
        at_w=best_w,
        n_samples=n,
    )
