"""Uniform time grids, sampled coefficient paths, and affine-in-noise processes.

Every solver in the package works on one uniform grid t_k = k*T/N.  Two small
containers carry the data living on it:

* ``MatrixPath`` -- a deterministic matrix- or vector-valued function of time,
  stored as samples aligned to the grid.  Between nodes a path is evaluated
  according to its kind: constants are constant, piecewise-constant paths hold
  their left value, grid-sampled paths interpolate linearly.

* ``AffineProcess`` -- a stochastic process of the form a(t) + b(t) * W(t)
  with deterministic ``a`` and ``b``.  This class is closed under the linear
  dynamics handled here, which is what makes the auxiliary backward equations
  exactly solvable by ODEs (see :mod:`bslq.bsde`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CONSTANT = "constant"
PIECEWISE = "piecewise-constant"
SAMPLED = "grid-sampled"

_KINDS = (CONSTANT, PIECEWISE, SAMPLED)
_NODE_ROUNDING = 4.0 * np.finfo(float).eps  # relative to T


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T with spacing T/N."""

    T: float
    steps: int

    def __post_init__(self):
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"horizon must be positive and finite, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not self.dt >= np.finfo(float).tiny:  # a subnormal or zero step
            raise ValueError(f"time step T/steps is not a normal positive double: "
                             f"T = {self.T}, steps = {self.steps}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def coarsen(self, factor: int) -> "TimeGrid":
        if self.steps % factor:
            raise ValueError(f"cannot coarsen {self.steps} steps by {factor}")
        return TimeGrid(self.T, self.steps // factor)


@dataclass(frozen=True, eq=False)
class MatrixPath:
    """Deterministic matrix/vector path sampled on a :class:`TimeGrid`.

    ``values`` has shape ``(1, *shape)`` for constants and
    ``(steps + 1, *shape)`` otherwise, where ``shape`` is ``(rows,)`` for
    vectors or ``(rows, cols)`` for matrices.
    """

    kind: str
    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown path kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        expected = 1 if self.kind == CONSTANT else self.grid.steps + 1
        if v.shape[0] != expected:
            raise ValueError(f"{self.kind} path needs {expected} samples, got {v.shape[0]}")
        if v.ndim not in (2, 3):
            raise ValueError("samples must be vectors or matrices")

    @classmethod
    def constant(cls, value, grid: TimeGrid) -> "MatrixPath":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(CONSTANT, v[None, ...], grid)

    @classmethod
    def piecewise(cls, values, grid: TimeGrid) -> "MatrixPath":
        return cls(PIECEWISE, np.asarray(values, dtype=float), grid)

    @classmethod
    def sampled(cls, values, grid: TimeGrid) -> "MatrixPath":
        return cls(SAMPLED, np.asarray(values, dtype=float), grid)

    @classmethod
    def zeros(cls, shape, grid: TimeGrid) -> "MatrixPath":
        return cls.constant(np.zeros(shape), grid)

    @property
    def shape(self) -> tuple:
        return self.values.shape[1:]

    def node_values(self) -> np.ndarray:
        """Samples at every grid node, shape (steps + 1, *shape)."""
        if self.kind == CONSTANT:
            reps = (self.grid.steps + 1,) + (1,) * (self.values.ndim - 1)
            return np.tile(self.values, reps)
        return self.values

    def at_node(self, k: int) -> np.ndarray:
        if self.kind == CONSTANT:
            return self.values[0]
        return self.values[k]

    def __call__(self, t: float) -> np.ndarray:
        """Evaluate at an arbitrary time in [0, T]."""
        if self.kind == CONSTANT:
            return self.values[0]
        if self.kind == PIECEWISE:
            return self.tabulate(t)
        N, dt = self.grid.steps, self.grid.dt
        pos = t / dt
        k = int(np.clip(np.floor(pos), 0, N - 1))
        theta = pos - k
        if theta <= 0.0:
            return self.values[k]
        return (1.0 - theta) * self.values[k] + theta * self.values[k + 1]

    def tabulate(self, times) -> np.ndarray:
        """Values at each of the 1-D ``times``, shape (len(times), *shape);
        row by row bitwise equal to :meth:`__call__` (the same operations).
        Constant paths give a read-only broadcast view."""
        times = np.asarray(times, dtype=float)
        if self.kind == CONSTANT:
            return np.broadcast_to(self.values[0], times.shape + self.shape)
        N = self.grid.steps
        if self.kind == PIECEWISE:
            # The interval from the node table, not t / dt (which can round below
            # a node's index); a time within node rounding (eps T) of a node is at it.
            k = np.searchsorted(self.grid.nodes, times + _NODE_ROUNDING * self.grid.T, "right")
            return self.values[np.clip(k - 1, 0, N)]
        pos = times / self.grid.dt
        k = np.clip(np.floor(pos), 0, N - 1).astype(int)
        theta = (pos - k).reshape((-1,) + (1,) * len(self.shape))
        return np.where(theta <= 0.0, self.values[k],
                        (1.0 - theta) * self.values[k] + theta * self.values[k + 1])

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass(frozen=True, eq=False)
class AffineProcess:
    """Process a(t) + b(t) * W(t) with deterministic paths a and b.

    ``a`` and ``b`` share one shape; ``b`` is the loading on the scalar
    Brownian motion, so the process is deterministic iff ``b`` vanishes.
    """

    a: MatrixPath
    b: MatrixPath

    def __post_init__(self):
        if self.a.shape != self.b.shape:
            raise ValueError(f"deterministic part shape {self.a.shape} "
                             f"!= loading shape {self.b.shape}")

    @classmethod
    def zero(cls, shape, grid: TimeGrid) -> "AffineProcess":
        return cls(MatrixPath.zeros(shape, grid), MatrixPath.zeros(shape, grid))

    @classmethod
    def deterministic(cls, a: MatrixPath) -> "AffineProcess":
        return cls(a, MatrixPath.zeros(a.shape, a.grid))

    @classmethod
    def of_constants(cls, a, b, grid: TimeGrid) -> "AffineProcess":
        return cls(MatrixPath.constant(a, grid), MatrixPath.constant(b, grid))

    @property
    def grid(self) -> TimeGrid:
        return self.a.grid

    @property
    def shape(self) -> tuple:
        return self.a.shape

    def node_parts(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a.node_values(), self.b.node_values()

    def at_terminal(self) -> tuple[np.ndarray, np.ndarray]:
        """Affine components (a(T), b(T))."""
        N = self.grid.steps
        return self.a.at_node(N), self.b.at_node(N)

    def sample(self, W: np.ndarray) -> np.ndarray:
        """Evaluate pathwise on Brownian values W of shape (paths, steps + 1).

        Returns an array of shape (paths, steps + 1, *shape).
        """
        a, b = self.node_parts()
        extra = (1,) * len(self.shape)
        return a[None, ...] + b[None, ...] * W.reshape(W.shape + extra)


def mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Node-wise mat-vec: ``mat`` (K, r, c) against ``vec`` (..., K, c).

    Each output row is one broadcast product per column, summed in column
    order; at c <= 2 this is bitwise equal to ``einsum("kij,...kj->...ki")``.
    Working row by row keeps the inner loops on the long axes: at
    (10000, 101, 2) it is about 2x faster than broadcasting over the short
    trailing axis and about 4x faster than batched ``matmul``."""
    rows, cols = mat.shape[-2:]
    out = np.empty(np.broadcast_shapes(mat.shape[:-2], vec.shape[:-1]) + (rows,))
    term = np.empty(out.shape[:-1]) if cols > 1 else None
    for i in range(rows):
        row = out[..., i]
        np.multiply(mat[..., i, 0], vec[..., 0], out=row)
        for j in range(1, cols):
            row += np.multiply(mat[..., i, j], vec[..., j], out=term)
    return out
