"""Fixed-step classical Runge-Kutta integration over precomputed stage tables.

All matrix/vector ODEs in this package (the quadratic-weight shift H, the
backward Riccati equations, the affine-ansatz coefficient ODEs) are smooth on
[0, T], so a fixed-step RK4 with a configurable number of substeps per grid
interval is both sufficient and exactly reproducible.  Dense output is the
state at every grid node; the anchor node carries the supplied condition
bitwise.

Stage-table contract: :func:`rk4_stages` is the one source of the
2*N*substeps + 1 distinct times at which RK4 evaluates a right-hand side.
Paths are tabulated there once (:meth:`bslq.grid.MatrixPath.tabulate`,
bitwise equal to ``MatrixPath.__call__`` at every stage time), so
right-hand sides index arrays instead of evaluating paths in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError
from .grid import TimeGrid

DEFAULT_SUBSTEPS = 4


@dataclass(frozen=True)
class OdeProblem:
    """Right-hand side plus integration direction on a grid.

    ``rhs(e, state) -> d(state)/dt`` must be pure.  ``e`` numbers the
    evaluations in integration order; its time is ``times[index[e]]`` with
    ``times, index = rk4_stages(grid, direction, substeps)``.
    """

    grid: TimeGrid
    rhs: Callable[[int, np.ndarray], np.ndarray]
    direction: str = "forward"
    substeps: int = DEFAULT_SUBSTEPS

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward|backward, got {self.direction!r}")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


def rk4_stages(grid: TimeGrid, direction: str,
               substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2*N*substeps + 1 distinct stage times in integration order, and
    for each of the 4*N*substeps evaluations the position of its time.

    Within an interval the substep times accumulate from its start node as
    ``t, t + h/2, t + h``; the interval's last time is the next node itself.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    nodes = grid.nodes
    if direction == "forward":
        starts, ends, h = nodes[:-1], nodes[1:], grid.dt / substeps
    else:
        starts, ends, h = nodes[:0:-1], nodes[-2::-1], -grid.dt / substeps
    cols = []
    t = starts
    for i in range(substeps):
        cols += [t, t + 0.5 * h]
        t = ends if i == substeps - 1 else t + h
    table = np.stack(cols, axis=1)  # (N, 2 substeps): all but each interval's end
    evals = np.arange(4 * grid.steps * substeps)  # k1..k4 at start, mid, mid, end
    return (np.append(table.ravel(), ends[-1]),
            2 * (evals // 4) + np.array([0, 1, 1, 2])[evals % 4])


def integrate(problem: OdeProblem, state: np.ndarray, post_step=None,
              record: bool = False):
    """Integrate from the anchor node across the whole grid.

    For ``forward`` problems ``state`` is the value at t = 0, for ``backward``
    problems the value at t = T.  Returns the path at every node, shape
    (steps + 1, *state.shape); the anchor node equals ``state`` exactly.
    With ``record`` it returns ``(path, stages)`` where ``stages[e]`` is the
    state the e-th evaluation saw, shape (4 steps substeps, *state.shape).
    A non-finite state aborts with :class:`IntegrationError` naming the node.
    """
    grid = problem.grid
    state = np.asarray(state, dtype=float)
    N, s = grid.steps, problem.substeps
    forward = problem.direction == "forward"
    dt = (grid.dt if forward else -grid.dt) / s
    rhs = problem.rhs
    out = np.empty((N + 1,) + state.shape)
    stages = np.empty((4 * N * s,) + state.shape) if record else None
    out[0 if forward else N] = state
    y = state
    e = 0
    for k in (range(1, N + 1) if forward else range(N - 1, -1, -1)):
        for _ in range(s):
            k1 = rhs(e, y)
            y2 = y + 0.5 * dt * k1
            k2 = rhs(e + 1, y2)
            y3 = y + 0.5 * dt * k2
            k3 = rhs(e + 2, y3)
            y4 = y + dt * k3
            k4 = rhs(e + 3, y4)
            if record:
                stages[e:e + 4] = (y, y2, y3, y4)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if post_step is not None:
                y = post_step(y)
            e += 4
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at node {k} (t={grid.nodes[k]:g})")
        out[k] = y
    return (out, stages) if record else out


def integrate_forward(grid: TimeGrid, rhs, y0, substeps: int = DEFAULT_SUBSTEPS,
                      post_step=None) -> np.ndarray:
    """Integrate ``rhs(t, y)`` forward from y(0) = y0 at the RK4 stage times."""
    times, index = rk4_stages(grid, "forward", substeps)
    return integrate(OdeProblem(grid, lambda e, y: rhs(times[index[e]], y), "forward",
                                substeps), y0, post_step)


def integrate_backward(grid: TimeGrid, rhs, yT, substeps: int = DEFAULT_SUBSTEPS,
                       post_step=None) -> np.ndarray:
    """Integrate ``rhs(t, y)`` backward from y(T) = yT at the RK4 stage times."""
    times, index = rk4_stages(grid, "backward", substeps)
    return integrate(OdeProblem(grid, lambda e, y: rhs(times[index[e]], y), "backward",
                                substeps), yT, post_step)


def integrate_linear(grid: TimeGrid, M: np.ndarray, N: np.ndarray,
                     r0: np.ndarray, r1: np.ndarray, aT: np.ndarray,
                     bT: np.ndarray, substeps: int = DEFAULT_SUBSTEPS):
    """Backward RK4 for  a' = M a + N b + r0,  b' = M b + r1  from (aT, bT).

    M, N (4 N substeps, n, n) and r0, r1 (4 N substeps, n, ...) are given at
    every evaluation of the backward stage table; trailing axes of r0, r1,
    aT, bT are a batch, and a batched solve equals the column-by-column
    solves bitwise.  A substep's four stages compose to an affine map
    z -> [[X, Y], [0, X]] z + (ca, cb) on z = (a, b), formed for all
    substeps in batched operations; only applying the maps is sequential.
    """
    steps, n = grid.steps, M.shape[-1]
    G = steps * substeps
    h = -grid.dt / substeps
    Ms, Ns = M.reshape(G, 4, n, n), N.reshape(G, 4, n, n)
    r0s, r1s = r0.reshape(G, 4, n, -1), r1.reshape(G, 4, n, -1)
    # Stage k's operator Xk, Yk and forcing ak, bk, summed with RK4 weights.
    Xk, Yk, ak, bk = Ms[:, 0], Ns[:, 0], r0s[:, 0], r1s[:, 0]
    X, Y, ca, cb = Xk, Yk, ak, bk
    for i, scale, w in ((1, 0.5 * h, 2.0), (2, 0.5 * h, 2.0), (3, h, 1.0)):
        Mi, Ni = Ms[:, i], Ns[:, i]
        Xk, Yk = Mi + scale * (Mi @ Xk), Ni + scale * (Mi @ Yk + Ni @ Xk)
        ak, bk = (_apply(Mi, scale * ak) + _apply(Ni, scale * bk) + r0s[:, i],
                  _apply(Mi, scale * bk) + r1s[:, i])
        X, Y, ca, cb = X + w * Xk, Y + w * Yk, ca + w * ak, cb + w * bk
    X = np.eye(n) + (h / 6.0) * X
    Y, ca, cb = (h / 6.0) * Y, (h / 6.0) * ca, (h / 6.0) * cb

    a, b = aT.reshape(n, -1).astype(float), bT.reshape(n, -1).astype(float)
    a_path, b_path = np.empty((steps + 1,) + a.shape), np.empty((steps + 1,) + b.shape)
    a_path[steps], b_path[steps] = a, b
    for k in range(steps - 1, -1, -1):
        for g in range((steps - 1 - k) * substeps, (steps - k) * substeps):
            a, b = _apply(X[g], a) + _apply(Y[g], b) + ca[g], _apply(X[g], b) + cb[g]
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise IntegrationError(f"non-finite state at node {k} (t={grid.nodes[k]:g})")
        a_path[k], b_path[k] = a, b
    shape = (steps + 1, n) + aT.shape[1:]
    return a_path.reshape(shape), b_path.reshape(shape)


def _apply(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x, x of shape (..., n, K), by the same operations for any K."""
    out = A[..., :, :1] * x[..., :1, :]
    for j in range(1, A.shape[-1]):
        out = out + A[..., :, j:j + 1] * x[..., j:j + 1, :]
    return out


def interior_derivative(path: np.ndarray, dt: float) -> tuple[slice, np.ndarray]:
    """Finite-difference time derivative at interior nodes.

    Uses the 5-point central stencil (fourth order) so that residual checks
    built on it stay far below the solver error; near the ends of short grids
    it falls back to the 3-point stencil.  Returns the node slice the
    estimate covers and the derivative array.
    """
    N = path.shape[0] - 1
    if N >= 4:
        sl = slice(2, N - 1)
        d = (path[0:N - 3] - 8.0 * path[1:N - 2]
             + 8.0 * path[3:N] - path[4:N + 1]) / (12.0 * dt)
        return sl, d
    sl = slice(1, N)
    d = (path[2:N + 1] - path[0:N - 1]) / (2.0 * dt)
    return sl, d
