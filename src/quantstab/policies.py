"""Causal coding/control policies over a finite channel alphabet.

A policy writes its symbol rule and its state update once, over rows of
loops stepped together; ``encoder()`` and ``controller()`` return fresh
single-trajectory state machines that are the one-row case. The encoder sees
states x_0..x_t (one call per step, in order); the controller sees only the
symbols q_0..q_t. One symbol of the alphabet is always reserved for
quantizer overflow, so a policy with ``c`` cells needs alphabet size at least
``c + 1``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .dynamics import SystemModel

__all__ = [
    "CodingPolicy",
    "NullPolicy",
    "UniformQuantizerPolicy",
    "ZoomPolicy",
    "null_policy",
    "uniform_quantizer_policy",
    "zoom_policy",
]


class CodingPolicy:
    """Base: channel alphabet {1..m} and the coding rule over rows of loops.

    ``initial_state(count)`` is the quantizer state of ``count`` independent
    loops (None for a memoryless policy). ``symbols(state, xs)`` is the
    encoder's symbol for each state row, and ``advance(state, qs)`` moves
    every row's state on by its symbol and returns the controls, shape
    (rows, control_dim). Encoder and controller evolve replicas of the same
    state driven purely by the symbol stream, so a simulation stepping many
    loops together keeps one copy per row; the ``encoder()`` and
    ``controller()`` sessions are the one-row case.
    """

    m: int

    def capacity(self) -> float:
        """Channel capacity in bits, log2 of the alphabet size."""
        return math.log2(self.m)

    def initial_state(self, count: int):
        return None

    def symbols(self, state, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def advance(self, state, qs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def step(self, state, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Symbols and controls of every row for one time step."""
        qs = self.symbols(state, xs)
        return qs, self.advance(state, qs)

    def encoder(self) -> "_Encoder":
        return _Encoder(self)

    def controller(self) -> "_Controller":
        return _Controller(self)


class _Encoder:
    """One loop's encoder: sees x_0..x_t, one call per step, in order."""

    def __init__(self, policy: CodingPolicy):
        self._policy = policy
        self.state = policy.initial_state(1)

    def encode(self, t: int, x) -> int:
        with np.errstate(all="ignore"):  # a blow-up shows in the states, not as a warning
            qs, _ = self._policy.step(self.state, np.asarray(x, float).reshape(1, -1))
        return int(qs[0])


class _Controller:
    """One loop's controller: sees only the symbols q_0..q_t."""

    def __init__(self, policy: CodingPolicy):
        self._policy = policy
        self.state = policy.initial_state(1)

    def control(self, t: int, q: int) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self._policy.advance(self.state, np.array([q]))[0]


MAX_CELLS = 2**24  # keeps any per-cell int64 array within 128 MB


def cell_count(cells) -> int:
    """Exact number of cells of a grid with ``cells`` per axis; raises
    ``ValueError`` above ``MAX_CELLS``."""
    count = math.prod(cells)
    if count > MAX_CELLS:
        raise ValueError(f"grid of {count} cells exceeds the limit of {MAX_CELLS}")
    return count


def cell_widths(low: np.ndarray, high: np.ndarray, cells) -> np.ndarray:
    """Per-axis width ``(high - low) / cells`` of a uniform grid's cells;
    raises ``ValueError`` unless every width is finite and positive."""
    with np.errstate(over="ignore"):
        width = (high - low) / np.asarray(cells, float)
    if not np.all(np.isfinite(width) & (width > 0.0)):
        raise ValueError(f"cell widths {width.tolist()} are not all finite and positive")
    return width


def cell_numbers(scaled: np.ndarray, cells) -> np.ndarray:
    """Row-major number of the grid cell of each row of ``scaled``.

    ``scaled`` holds in-range rows only, in cell widths from the grid's low
    corner (``(x - low) / width``); a coordinate that rounds onto the top edge
    of its axis is clipped into the top cell. Every uniform grid numbers its
    cells here.
    """
    # scaled >= 0, so clipping only moves a top-edge index down into the top cell
    return np.ravel_multi_index(tuple(scaled.astype(np.int64).T), cells, mode="clip")


def cell_coords(numbers, cells) -> np.ndarray:
    """Per-axis cell indices of row-major cell numbers: shape (N,) for one
    number, (rows, N) for an array of them."""
    return np.array(np.unravel_index(numbers, cells)).T


def per_axis(value, n: int, default=None) -> np.ndarray:
    """A fresh array of ``n`` floats from one number for every axis or one
    per axis. None reads as ``default``; without one it is nan, as numpy
    reads it, and fails where nan fails."""
    value = default if value is None else value
    return np.broadcast_to(np.asarray(value, float), (n,)).copy()


def _cancelling(policy, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the nominal image ``f(point, noise_mean)`` and the control
    ``u = B^+ (target - image)`` that cancels it. The products are stacked
    matrix-vector ones, which round as ``B^+ @ v`` on one row does."""
    images = policy.model.f_many(points, policy.noise_mean[None])
    return images, (policy.model.b_pinv @ (policy.target - images)[:, :, None])[:, :, 0]


# --------------------------------------------------------------------------
# Null policy

class NullPolicy(CodingPolicy):
    """Transmits symbol 1 and applies zero control; the open-loop baseline."""

    def __init__(self, m: int, control_dim: int = 1):
        if m < 1:
            raise ValueError("alphabet size must be at least 1")
        self.m = m
        self.control_dim = control_dim

    def symbols(self, state, xs):
        return np.ones(len(xs), dtype=np.int64)

    def advance(self, state, qs):
        return np.zeros((len(qs), self.control_dim))


null_policy = NullPolicy


# --------------------------------------------------------------------------
# Grid quantizers

class _GridQuantizer(CodingPolicy):
    """Grid cells, symbols ``1..n_cells`` and overflow ``m`` (by default
    ``n_cells + 1``); controls steer ``f(., noise_mean)`` to ``target``."""

    def __init__(self, model: SystemModel, cells_per_axis, m, target, noise_mean):
        self.model = model
        self.cells_per_axis = tuple(cells_per_axis)
        self.n_cells = cell_count(self.cells_per_axis)
        self.m = self.n_cells + 1 if m is None else int(m)
        if self.n_cells > self.m - 1:
            raise ValueError(
                f"{self.n_cells} cells do not fit an alphabet of {self.m} with overflow reserved"
            )
        self.target = per_axis(target, model.n, 0.0)
        self.noise_mean = per_axis(noise_mean, model.noise_dim, 0.0)

    @property
    def overflow_symbol(self) -> int:
        return self.m


class UniformQuantizerPolicy(_GridQuantizer):
    """Fixed uniform grid over a box; symbols name cells, controls cancel the
    nominal one-step image of the cell centroid.

    Control rule for an in-box symbol: ``u = B^+ (target - f(centroid, w_mean))``
    with the Moore-Penrose pseudo-inverse of B. Overflow transmits the reserved
    symbol and applies zero control. Controls are kept in a table with one row
    per cell plus a zero overflow row, filled on first use of each symbol.
    """

    def __init__(
        self,
        model: SystemModel,
        box_low,
        box_high,
        bits_per_axis,
        target=None,
        noise_mean=None,
        m: Optional[int] = None,
    ):
        self.low, self.high = per_axis(box_low, model.n), per_axis(box_high, model.n)
        if np.any(self.high <= self.low):
            raise ValueError("quantizer box is degenerate")
        bits = np.broadcast_to(np.asarray(bits_per_axis, int), (model.n,))
        if np.any(bits < 0):
            raise ValueError("bits per axis must be nonnegative integers")
        super().__init__(model, (2 ** int(b) for b in bits), m, target, noise_mean)
        self.width = cell_widths(self.low, self.high, self.cells_per_axis)
        # controls per symbol, the last row for overflow; cell rows are
        # computed when their symbol first occurs
        self._controls = np.zeros((self.n_cells + 1, model.control_dim))
        self._filled = np.zeros(self.n_cells + 1, dtype=bool)
        self._filled[self.n_cells] = True

    def symbols(self, state, xs):
        inside = np.logical_and.reduce((xs >= self.low) & (xs < self.high), axis=1)
        # outside rows are scaled from the low corner itself, so they never overflow
        scaled = (np.where(inside[:, None], xs, self.low) - self.low) / self.width
        return np.where(inside, 1 + cell_numbers(scaled, self.cells_per_axis), self.m)

    def symbol_of(self, x) -> int:
        return int(self.symbols(None, np.asarray(x, float).reshape(1, -1))[0])

    def cell_center(self, symbol: int) -> np.ndarray:
        return self._centers(np.array([symbol]))[0]

    def _centers(self, symbols: np.ndarray) -> np.ndarray:
        return self.low + (cell_coords(symbols - 1, self.cells_per_axis) + 0.5) * self.width

    def advance(self, state, qs):
        rows = np.minimum(qs, self.n_cells + 1) - 1
        missing = rows[~self._filled[rows]]
        if missing.size:
            # sorted and unique, as np.unique, which would import numpy.ma
            mark = np.zeros(self.n_cells + 1, dtype=bool)
            mark[missing] = True
            missing = np.flatnonzero(mark)
            self._controls[missing] = _cancelling(self, self._centers(missing + 1))[1]
            self._filled[missing] = True
        return self._controls[rows]


uniform_quantizer_policy = UniformQuantizerPolicy


# --------------------------------------------------------------------------
# Adaptive zoom quantizer

class ZoomPolicy(_GridQuantizer):
    """Adaptive quantizer over the moving box [center - L, center + L]^N.

    In-range measurements shrink the range (L <- alpha L) and recenter on the
    predicted image of the quantized point; overflow transmits the reserved
    symbol and expands the range (L <- beta L), so the scheme recovers on its
    own after excursions. Encoder and controller evolve replicas of the same
    (center, L) state driven purely by the symbol stream, which is what keeps
    them synchronized without side information.
    """

    def __init__(
        self,
        model: SystemModel,
        m: int,
        alpha: float,
        beta: float,
        initial_halfwidth: float,
        cells_per_axis=None,
        center=None,
        target=None,
        noise_mean=None,
    ):
        if m < 2:
            raise ValueError("zoom policy needs at least one cell plus the overflow symbol")
        if not (0.0 < alpha < 1.0):
            raise ValueError("zoom-in factor must lie in (0, 1)")
        if beta <= 1.0:
            raise ValueError("zoom-out factor must exceed 1")
        if initial_halfwidth <= 0.0:
            raise ValueError("initial halfwidth must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.initial_halfwidth = float(initial_halfwidth)
        if cells_per_axis is None:
            if model.n == 1:
                cells_per_axis = (m - 1,)
            else:
                k = int(math.floor((m - 1) ** (1.0 / model.n) + 1e-9))
                cells_per_axis = (max(k, 1),) * model.n
        cells = tuple(int(c) for c in np.broadcast_to(cells_per_axis, (model.n,)))
        if any(c < 1 for c in cells):
            raise ValueError("need at least one cell per axis")
        super().__init__(model, cells, m, target, noise_mean)
        self._cells = np.asarray(cells, float)  # per-step scaling
        self.center0 = per_axis(center, model.n, 0.0)

    def initial_state(self, count: int) -> "ZoomState":
        return ZoomState(np.tile(self.center0, (count, 1)), np.full(count, self.initial_halfwidth))

    def symbols(self, state: "ZoomState", xs):
        span = 2.0 * state.halfwidth[:, None]
        offset = xs - (state.center - state.halfwidth[:, None])
        inside = np.logical_and.reduce((offset >= 0.0) & (offset < span), axis=1)
        scaled = np.where(inside[:, None], offset / span * self._cells, 0.0)
        return np.where(inside, 1 + cell_numbers(scaled, self.cells_per_axis), self.m)

    def advance(self, state: "ZoomState", qs):
        """Shared state update of every row; returns the controls.

        Every row's centroid is evaluated, an overflow row's at the top cell,
        and ``np.where`` keeps an overflow row's center and zero control.
        """
        hit = (qs <= self.n_cells)[:, None]
        halfwidth = state.halfwidth[:, None]
        low = state.center - halfwidth
        width = 2.0 * halfwidth / self._cells
        coords = cell_coords(np.minimum(qs, self.n_cells) - 1, self.cells_per_axis)
        image, u = _cancelling(self, low + (coords + 0.5) * width)
        state.center = np.where(hit, image + self.model.control_effect(u), state.center)
        state.halfwidth = state.halfwidth * np.where(hit[:, 0], self.alpha, self.beta)
        return np.where(hit, u, 0.0)


class ZoomState:
    """Mutable quantizer ranges of a set of loops: ``center`` (rows, N) and
    ``halfwidth`` (rows,); replicated on both sides of the channel."""

    __slots__ = ("center", "halfwidth")

    def __init__(self, center: np.ndarray, halfwidth: np.ndarray):
        self.center = center
        self.halfwidth = halfwidth

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZoomState)
            and np.array_equal(self.halfwidth, other.halfwidth)
            and np.array_equal(self.center, other.center)
        )

    def __repr__(self) -> str:
        return f"ZoomState(center={self.center!r}, halfwidth={self.halfwidth!r})"


zoom_policy = ZoomPolicy
