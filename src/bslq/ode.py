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

A float state runs the same RK4 loop on Python floats, without the cost of
numpy calls on 0-d or 1x1 arrays.  The Riccati solves of n = m = 1 problems
use this: their one right-hand side per equation, built in 1x1-exact float
arithmetic, is bitwise equal to its matrix build (:mod:`bslq.riccati`).
:func:`integrate_linear` applies its substep maps on (a, b) stacked, or on
Python floats, column by column, for n = 1 below ARRAY_COLUMNS columns, in
the array recursion's order.  A float product is a plain ``x * y``, never
``0.0 + x * y``, so a -0.0 product keeps its sign, as it does in numpy.
Both :func:`integrate` and :func:`integrate_linear` run with numpy overflow
and invalid-value warnings off: a blow-up surfaces once, as the
:class:`IntegrationError` of the first node, in integration order, where the
state is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError
from .grid import TimeGrid

DEFAULT_SUBSTEPS = 4
ARRAY_COLUMNS = 16  # n = 1 from this many columns: arrays beat Python floats


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


def integrate(problem: OdeProblem, state: np.ndarray | float, post_step=None,
              record: bool = False):
    """Integrate from the anchor node across the whole grid.

    For ``forward`` problems ``state`` is the value at t = 0, for ``backward``
    problems the value at t = T.  Returns the path at every node, shape
    (steps + 1, *state.shape); the anchor node equals ``state`` exactly.
    With ``record`` it returns ``(path, stages)`` where ``stages[e]`` is the
    state the e-th evaluation saw, shape (4 steps substeps, *state.shape).
    A float ``state`` stays a Python float inside the loop: ``rhs`` and
    ``post_step`` see and return floats, and the results have shape
    (steps + 1,) and (4 steps substeps,).  A non-finite state aborts with
    :class:`IntegrationError` naming the node.
    """
    grid = problem.grid
    if isinstance(state, float):
        finite = math.isfinite
    else:
        state = np.asarray(state, dtype=float)
        finite = _all_finite
    shape = np.shape(state)
    N, s = grid.steps, problem.substeps
    forward = problem.direction == "forward"
    dt = (grid.dt if forward else -grid.dt) / s
    rhs = problem.rhs
    out = np.empty((N + 1,) + shape)
    stages = np.empty((4 * N * s,) + shape) if record else None
    out[0 if forward else N] = state
    y = state
    e = 0
    half, sixth = 0.5 * dt, dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (range(1, N + 1) if forward else range(N - 1, -1, -1)):
            for _ in range(s):
                k1 = rhs(e, y)
                y2 = y + half * k1
                k2 = rhs(e + 1, y2)
                y3 = y + half * k2
                k3 = rhs(e + 2, y3)
                y4 = y + dt * k3
                k4 = rhs(e + 3, y4)
                if record:
                    stages[e:e + 4] = (y, y2, y3, y4)
                y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if post_step is not None:
                    y = post_step(y)
                e += 4
            if not finite(y):
                raise IntegrationError(f"non-finite state at node {k} (t={grid.nodes[k]:g})")
            out[k] = y
    return (out, stages) if record else out


def _all_finite(y: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(y)))


def integrate_linear(grid: TimeGrid, M: np.ndarray, N: np.ndarray,
                     r0: np.ndarray, r1: np.ndarray, aT: np.ndarray,
                     bT: np.ndarray, substeps: int = DEFAULT_SUBSTEPS):
    """Backward RK4 for  a' = M a + N b + r0,  b' = M b + r1  from (aT, bT).

    M, N (4 N substeps, n, n) and r0, r1 (4 N substeps, n, ...) are given at
    every evaluation of the backward stage table; trailing axes of r0, r1,
    aT, bT are a batch, and a batched solve equals the column-by-column
    solves bitwise.  A substep's four stages compose to an affine map
    z -> [[X, Y], [0, X]] z + (ca, cb) on z = (a, b), formed for all
    substeps in batched operations; only applying the maps is sequential:
    X to (a, b) stacked, then Y b to a (on floats for n = 1 below
    ARRAY_COLUMNS columns).  The paths are checked once for a non-finite node.
    """
    steps, n = grid.steps, M.shape[-1]
    z = np.stack((aT.reshape(n, -1), bT.reshape(n, -1)), dtype=float)
    path = np.empty((2, steps + 1) + z.shape[1:])  # the a and b halves
    path[:, steps] = z
    with np.errstate(over="ignore", invalid="ignore"):
        X, Y, ca, cb = _substep_maps(grid, M, N, r0, r1, substeps)
        if n == 1 and z.shape[-1] < ARRAY_COLUMNS:  # one column at a time
            X, Y = memoryview(X.ravel()), memoryview(Y.ravel())
            for j, (a, b) in enumerate(z[:, 0].T.tolist()):
                a_out, b_out, ca_j, cb_j = map(memoryview, (
                    path[0, :, 0, j], path[1, :, 0, j], ca[:, 0, j], cb[:, 0, j]))
                for k in range(steps - 1, -1, -1):
                    for g in range((steps - 1 - k) * substeps, (steps - k) * substeps):
                        a, b = X[g] * a + Y[g] * b + ca_j[g], X[g] * b + cb_j[g]
                    a_out[k], b_out[k] = a, b
        else:
            c = np.stack((ca, cb), axis=1)
            Xc, Yc = ([A[:, :, j:j + 1] for j in range(n)] for A in (X, Y))
            for k in range(steps - 1, -1, -1):
                for g in range((steps - 1 - k) * substeps, (steps - k) * substeps):
                    Xz, Yb = Xc[0][g] * z[:, :1], Yc[0][g] * z[1, :1]
                    for j in range(1, n):
                        Xz, Yb = Xz + Xc[j][g] * z[:, j:j + 1], Yb + Yc[j][g] * z[1, j:j + 1]
                    Xz[0] += Yb
                    z = np.add(Xz, c[g], out=Xz)
                path[:, k] = z
    finite = np.isfinite(path[:, :steps]).all(axis=(0, 2, 3))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[-1])   # the first node the backward pass reached
        raise IntegrationError(f"non-finite state at node {k} (t={grid.nodes[k]:g})")
    shape = (steps + 1, n) + aT.shape[1:]
    return path[0].reshape(shape), path[1].reshape(shape)


def _substep_maps(grid: TimeGrid, M: np.ndarray, N: np.ndarray, r0: np.ndarray,
                  r1: np.ndarray, substeps: int) -> tuple[np.ndarray, ...]:
    """X, Y, ca, cb of each backward substep's map z -> [[X, Y], [0, X]] z +
    (ca, cb): its four RK4 stages composed, for all substeps at once."""
    G, n, h = grid.steps * substeps, M.shape[-1], -grid.dt / substeps
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
    return np.eye(n) + (h / 6.0) * X, (h / 6.0) * Y, (h / 6.0) * ca, (h / 6.0) * cb


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
    estimate covers and the derivative array.  A path of fewer than three
    nodes has no interior node and raises ``ValueError``.
    """
    N = path.shape[0] - 1
    if N < 2:
        raise ValueError(f"a derivative needs at least 3 nodes, got {N + 1}")
    if N >= 4:
        sl = slice(2, N - 1)
        d = (path[0:N - 3] - 8.0 * path[1:N - 2]
             + 8.0 * path[3:N] - path[4:N + 1]) / (12.0 * dt)
        return sl, d
    sl = slice(1, N)
    d = (path[2:N + 1] - path[0:N - 1]) / (2.0 * dt)
    return sl, d
