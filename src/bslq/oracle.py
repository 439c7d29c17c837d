"""Brute-force ground truth on a binomial noise tree.

The Brownian motion is replaced by the weak-order-one binomial walk with
increments +-sqrt(dt), each with probability 1/2, on a non-recombining tree
of N <= 12 levels.  On the tree the controlled backward equation becomes an
exact per-node recursion,

    Z_k = E[Y_{k+1} dW | node] / dt = (Y_up - Y_down) / (2 sqrt(dt)),
    (I + dt A_k) Y_k = (Y_up + Y_down)/2 - dt (B_k u_k + C_k Z_k + f_k),

so the cost is a quadratic J(u) = u^T Lam u + 2 lam^T u + c in the
D = m (2^N - 1) per-node controls, and the Hessian 2 Lam certifies
(non)convexity of the discretised problem.  Lam is never formed.

A subtree reaches the rest of the tree only through the n-vector Y at its
root, so subtrees are eliminated bottom-up: the tree analogue of the
Riccati reduction.  A node's local coordinates are x = (alpha_up, alpha_dn,
u), the coordinates its two children pass up and its own control.  An
orthogonal change of x, read off an SVD of the linear map x -> Y_node,
splits x into at most n range coordinates, passed to the parent, and kernel
coordinates, which no other node sees and which a Schur complement
eliminates (one pivot block).  At the root everything left is eliminated.

A, B, C, the weights and the probability 0.5^level depend on the level
only (node tables and CostForm of the scenario resampled onto the tree's
N-step grid); noise enters only the affine data f, q, rho1, rho2 and xi.
So every node of a level shares one quadratic block, one range basis and
one pivot, and the whole tree takes N small factorisations.  Linear terms and the
back-substituted controls are per node, carried as (2^level, .) arrays.

The elimination is a congruence, so by Sylvester's law and Haynsworth's
inertia additivity the negative eigenvalues of the pivots, each counted
2^level times, number the eigenvalues of Lam below a shift sigma (the shift
enters each node's u-block).  One count at NONCONVEX_TOL decides convexity;
bisection on the count, many shifts per pass, gives the extreme eigenvalues
for solve_discrete.  compare needs no extreme eigenvalue and bisects only if
a pivot eigenvalue falls under bound / SINGULAR_COND.  The value and the
gradient norm come from a separate forward and adjoint sweep over the
returned controls, not from the factorisation.  Controls are indexed
depth-first, up child first, so every subtree owns a contiguous index block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ConvexityError, IntegrationError
from .evaluate import cost_form
from .problem import ProblemSpec, resample

MAX_STEPS = 12
NONCONVEX_TOL = -1e-9
SINGULAR_COND = 1e12
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class BinomialTree:
    """Shape of the +-sqrt(dt) walk used by the oracle."""

    steps: int
    T: float

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.dt)

    def control_count(self) -> int:
        return 2 ** self.steps - 1


@dataclass(frozen=True)
class ControlNode:
    index: int      # first control slot of this node
    level: int
    t: float
    w: float        # tree value of W at the node


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Exact solution of the tree-discretised problem."""

    steps: int
    control: np.ndarray | None   # stacked optimal controls, DFS order
    value: float | None
    gradient_norm: float | None
    hessian_min_eig: float       # of the Hessian 2 Lam
    negative_eigs: int           # Hessian eigenvalues below NONCONVEX_TOL
    convex: bool
    singular: bool
    y0: np.ndarray | None
    nodes: list[ControlNode] = field(repr=False)


def _affine(parts, w: np.ndarray) -> np.ndarray:
    """a + b w, (len(w), dim), at a level's node values w for its parts (a, b)."""
    a, b = parts
    return a + b * w[:, None]


@dataclass(frozen=True, eq=False)
class _Level:
    """Coefficients and quadratic structure shared by one tree level.

    x = (alpha_up, alpha_dn, u) has d = 2 child + m coordinates; ``Y`` and
    ``V`` are the linear parts of x -> Y_node and x -> (Y, Z, u), ``H`` the
    Hessian of the node's cost in x (with G at the root).  ``basis`` is
    orthogonal with the ``rank`` range coordinates first (None at the root).
    """

    t: float
    K: np.ndarray        # I + dt A
    B: np.ndarray
    C: np.ndarray
    f: tuple             # the parts (a, b) of f
    W: np.ndarray        # blocked weight
    lin: tuple           # the parts (a, b) of the linear weight (q, rho1, rho2)
    scale: float         # 0.5^level dt
    child: int
    Y: np.ndarray
    V: np.ndarray
    H: np.ndarray
    basis: np.ndarray | None
    rank: int


def _levels(spec: ProblemSpec, tree: BinomialTree) -> list[_Level]:
    """Build the per-level structure bottom-up (it does not depend on sigma)
    from the node tables of ``spec``, the scenario on the tree's grid."""
    n, m, N = spec.n, spec.m, tree.steps
    dt, s = tree.dt, tree.sqrt_dt
    form = cost_form(spec)
    A, B, C = (p.node_values() for p in (spec.A, spec.B, spec.C))
    fa, fb = spec.f.node_parts()
    levels: list[_Level] = [None] * N
    M = np.zeros((n, 0))                 # leaves: Y = xi, no coordinates
    for k in reversed(range(N)):
        K, W = np.eye(n) + dt * A[k], form.M[k]
        rc = M.shape[1]
        d = 2 * rc + m
        up = np.zeros((n, d))
        up[:, :rc] = M
        dn = np.zeros((n, d))
        dn[:, rc:2 * rc] = M
        Z = (up - dn) / (2.0 * s)
        U = np.zeros((m, d))
        U[:, 2 * rc:] = np.eye(m)
        Y = np.linalg.solve(K, 0.5 * (up + dn) - dt * (B[k] @ U + C[k] @ Z))
        V = np.concatenate([Y, Z, U], axis=0)
        scale = (0.5 ** k) * dt
        H = scale * (V.T @ W @ V)
        if k == 0:
            H += Y.T @ spec.G @ Y
            basis, rank = None, 0
        else:
            # The first min(n, d) right singular vectors span the row space
            # of Y at any numerical rank, so no rank threshold is needed: a
            # coordinate Y does not see is eliminated one level up instead.
            basis = np.linalg.svd(Y)[2].T
            rank = min(n, d)
            M = Y @ basis[:, :rank]
        levels[k] = _Level(spec.grid.nodes[k], K, B[k], C[k], (fa[k], fb[k]), W,
                           (form.a[k], form.b[k]), scale, rc, Y, V, 0.5 * (H + H.T),
                           basis, rank)
    return levels


def _regular_eigh(X: np.ndarray, ok: np.ndarray):
    """eigh of a stack of symmetric blocks.  ``ok`` (updated in place) drops
    the blocks with an eigenvalue that is zero (magnitude <= TINY) or not
    finite; they get placeholder eigenvalues 1."""
    lam, Q = np.linalg.eigh(X)
    ok &= np.all(np.abs(lam) > TINY, axis=1)
    return np.where(ok[:, None], lam, 1.0), Q


def _inertia(levels: list[_Level], m: int, sigmas: np.ndarray):
    """For each shift, the number of eigenvalues of Lam below it, and
    whether every local block was regular (the count is valid).

    At a node, P is the shifted local block in x (the children's Schur
    complements included) and R = V_r^T P^-1 V_r the inverse of its Schur
    complement onto the range coordinates.  By Haynsworth the kernel pivot
    has In(P) - In(R) and R^-1 goes up.  Going through P^-1 keeps a child
    block that is nearly singular at sigma (a repeated eigenvalue) from
    cancelling against the node's u-block.  All shifts ride one pass.
    """
    K = sigmas.size
    S = np.zeros((K, 0, 0))
    negative = np.zeros(K, dtype=np.int64)
    ok = np.ones(K, dtype=bool)
    for k in reversed(range(len(levels))):
        lv = levels[k]
        rc = lv.child
        P = np.repeat(lv.H[None], K, axis=0)
        P[:, :rc, :rc] += S
        P[:, rc:2 * rc, rc:2 * rc] += S
        u = np.arange(2 * rc, 2 * rc + m)
        P[:, u, u] -= sigmas[:, None]
        lam, Q = _regular_eigh(P, ok)
        negative += 2 ** k * np.count_nonzero(lam < 0.0, axis=1)
        if lv.basis is None:
            return negative, ok
        F = np.swapaxes(Q, 1, 2) @ lv.basis[:, :lv.rank]
        mu, U = _regular_eigh(np.swapaxes(F, 1, 2) @ (F / lam[:, :, None]), ok)
        negative -= 2 ** k * np.count_nonzero(mu < 0.0, axis=1)
        S = (U / mu[:, None, :]) @ np.swapaxes(U, 1, 2)
        S[~ok] = 0.0


class _Spectrum:
    """Eigenvalue counts of Lam from the pivot inertia, and bisection."""

    SECTIONS = 15        # interior shifts per interval and pass

    def __init__(self, levels: list[_Level], m: int, size: int):
        self.levels, self.m, self.size = levels, m, size
        # Lam is the sum over nodes of E^T H E, where E maps the controls to
        # the node's x and has orthonormal rows, so |Lam| <= sum 2^k |H_k|.
        self.bound = 2.0 * sum(2 ** k * float(np.linalg.norm(lv.H))
                               for k, lv in enumerate(levels))

    def below(self, sigmas) -> np.ndarray:
        """Number of eigenvalues of Lam below each shift.

        A shift that makes a local block exactly singular (it sits on an
        eigenvalue of a subtree block) is stepped over by nudging it a few
        ulps up.
        """
        sigmas = np.asarray(sigmas, dtype=float)
        counts, ok = _inertia(self.levels, self.m, sigmas)
        nudge = 4.0 * EPS * np.maximum(np.abs(sigmas), self.bound)
        for i in range(1, 8):
            bad = np.flatnonzero(~ok)
            if not bad.size:
                return counts
            counts[bad], ok[bad] = _inertia(self.levels, self.m,
                                            sigmas[bad] + i * nudge[bad])
        raise ConsistencyError(f"no regular shift near {sigmas[~ok][0]!r}")

    def extremes(self) -> tuple[float, float]:
        """(lambda_min, lambda_max) by bisection of [-bound, bound], SECTIONS
        shifts per interval in one pass.  lambda_min is resolved to 4 ulps,
        lambda_max, which only scales the singular test, to 1e-6; both to no
        less than eps bound."""
        b = self.bound
        if b == 0.0:
            return 0.0, 0.0
        target = np.array([1, self.size])
        rtol = np.array([4.0 * EPS, 1e-6])
        lo, hi = np.full(2, -b), np.full(2, b)
        frac = np.arange(1, self.SECTIONS + 1) / (self.SECTIONS + 1)
        while True:
            width = hi - lo
            rows = np.flatnonzero(width > np.maximum(rtol * np.maximum(-lo, hi), EPS * b))
            if not rows.size:
                break
            grid = lo[rows, None] + width[rows, None] * frac
            hits = self.below(grid.ravel()).reshape(grid.shape) >= target[rows, None]
            for i, g, h in zip(rows, grid, hits):
                f = int(np.argmax(h)) if h.any() else self.SECTIONS
                if f < self.SECTIONS:
                    hi[i] = g[f]
                if f > 0:
                    lo[i] = g[f - 1]
        lam = 0.5 * (lo + hi)
        return float(lam[0]), float(lam[1])


def _interleave(up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """Rows of the next level from per-node children: up child at even rows."""
    out = np.empty((2 * len(up),) + up.shape[1:], dtype=up.dtype)
    out[0::2] = up
    out[1::2] = dn
    return out


def _node_layout(N: int, s: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """W at the nodes of levels 0..N, and the DFS numbers of the control
    nodes of levels 0..N-1.  W accumulates w +- s as a recursive walk would."""
    ws = [np.zeros(1)]
    dfs = [np.zeros(1, dtype=np.intp)]
    for k in range(N):
        ws.append(_interleave(ws[k] + s, ws[k] - s))
        if k + 1 < N:
            dfs.append(_interleave(dfs[k] + 1, dfs[k] + 2 ** (N - k - 1)))
    return ws, dfs


def _step_y(lv: _Level, y: np.ndarray, s: float, dt: float, w, Bu=0.0):
    """One backward step at a level for every node: (Y, Z) from the children."""
    up, dn = y[0::2], y[1::2]
    Z = (up - dn) / (2.0 * s)
    rhs = 0.5 * (up + dn) - dt * (Bu + Z @ lv.C.T + _affine(lv.f, w))
    return np.linalg.solve(lv.K, rhs.T).T, Z


@np.errstate(over="ignore", invalid="ignore")  # _sweep checks the value
def _optimal_controls(spec, tree, levels, ws, drop: float) -> tuple[list[np.ndarray], bool]:
    """Minimise the cost by block elimination leaves-first, then
    back-substitute root-first: the controls of each level as (2^level, m)
    arrays, and whether a pivot eigenvalue of magnitude <= drop was left out
    of the pivot's inverse (a pseudo-inverse for a singular Lam)."""
    m, N = spec.m, tree.steps
    dt, s = tree.dt, tree.sqrt_dt
    y = _affine(spec.xi.at_terminal(), ws[N])
    P, p = np.zeros((0, 0)), np.zeros((2 ** N, 0))
    gains: list = [None] * N
    dropped = False
    for k in reversed(range(N)):
        lv = levels[k]
        rc, r = lv.child, lv.rank
        X = lv.H.copy()
        X[:rc, :rc] += P
        X[rc:2 * rc, rc:2 * rc] += P
        y, Z = _step_y(lv, y, s, dt, ws[k])
        Vc = np.concatenate([y, Z, np.zeros((y.shape[0], m))], axis=1)
        px = lv.scale * ((Vc @ lv.W + _affine(lv.lin, ws[k])) @ lv.V)
        px[:, :rc] += p[0::2]
        px[:, rc:2 * rc] += p[1::2]
        if lv.basis is None:
            px += (y @ spec.G + spec.g) @ lv.Y
        else:
            X = lv.basis.T @ X @ lv.basis
            px = px @ lv.basis
        # for range coordinates alpha the kernel ones are -(alpha F + h)
        lam, Q = np.linalg.eigh(X[r:, r:])
        keep = np.abs(lam) > drop
        dropped = dropped or not keep.all()
        inv = (Q[:, keep] / lam[keep]) @ Q[:, keep].T
        F, h = X[:r, r:] @ inv, px[:, r:] @ inv
        P = X[:r, :r] - F @ X[r:, :r]
        P = 0.5 * (P + P.T)
        p = px[:, :r] - h @ X[r:, :r]
        gains[k] = (F, h)

    x = -gains[0][1]
    controls = []
    for k in range(N):
        rc = levels[k].child
        controls.append(x[:, 2 * rc:])
        if k + 1 == N:
            break
        nxt = levels[k + 1]
        alpha = _interleave(x[:, :rc], x[:, rc:2 * rc])
        F, h = gains[k + 1]
        x = alpha @ nxt.basis[:, :rc].T - (alpha @ F + h) @ nxt.basis[:, rc:].T
    return controls, dropped


@np.errstate(over="ignore", invalid="ignore")
def _sweep(spec, tree, levels, ws, controls) -> tuple[float, float, np.ndarray]:
    """Cost, gradient norm and Y(0) of given controls: a forward Y sweep
    leaves-first and an adjoint sweep root-first, every level batched."""
    n, N = spec.n, tree.steps
    dt, s = tree.dt, tree.sqrt_dt
    y = _affine(spec.xi.at_terminal(), ws[N])
    total = 0.0
    gV: list = [None] * N
    for k in reversed(range(N)):
        lv, u = levels[k], controls[k]
        y, Z = _step_y(lv, y, s, dt, ws[k], u @ lv.B.T)
        V = np.concatenate([y, Z, u], axis=1)
        lin = _affine(lv.lin, ws[k])
        VW = V @ lv.W
        total += lv.scale * float(np.sum(VW * V) + 2.0 * np.sum(lin * V))
        gV[k] = 2.0 * lv.scale * (VW + lin)
    y0 = y[0]
    total += float(y0 @ spec.G @ y0 + 2.0 * spec.g @ y0)
    if not math.isfinite(total):
        raise IntegrationError(f"tree value at {N} steps is not finite: {total}")

    grads = []
    mu = gV[0][:, :n] + 2.0 * (y[:1] @ spec.G + spec.g)
    for k in range(N):
        lv = levels[k]
        nu = np.linalg.solve(lv.K.T, mu.T).T
        gz = gV[k][:, n:2 * n] - dt * nu @ lv.C
        grads.append(gV[k][:, 2 * n:] - dt * nu @ lv.B)
        if k + 1 < N:
            mu = gV[k + 1][:, :n] + _interleave(0.5 * nu + gz / (2.0 * s),
                                                0.5 * nu - gz / (2.0 * s))
    grad = np.concatenate([g.ravel() for g in grads])
    return total, float(np.linalg.norm(grad)), y0


def _tree(spec: ProblemSpec, steps: int):
    """Check the preconditions; the scenario resampled onto the tree's grid
    (its TimeGrid rejects steps < 1), the tree, its levels and node layout."""
    if steps > MAX_STEPS:
        raise ValueError(f"binomial oracle capped at {MAX_STEPS} steps, got {steps}")
    if spec.n > 3 or spec.m > 3:
        raise ValueError("binomial oracle supports dimensions n, m <= 3")
    tree_spec = resample(spec, steps)
    min_steps = spec.grid.T * (2.0 * spec.A.max_abs() + spec.C.max_abs() + 1.0)
    if steps < min_steps:
        raise ValueError(f"steps={steps} too coarse for these coefficients "
                         f"(need >= {min_steps:g})")
    tree = BinomialTree(steps, spec.grid.T)
    return (tree_spec, tree, _levels(tree_spec, tree)) + _node_layout(steps, tree.sqrt_dt)


def solve_discrete(spec: ProblemSpec, steps: int) -> DiscreteSolution:
    """Solve the tree-discretised quadratic program exactly.

    Requires steps <= 12 and state/control dimensions <= 3.  The step count
    must also keep I + dt A safely invertible:
    steps >= T (2 max|A| + max|C| + 1); a non-finite value raises IntegrationError.
    """
    tree_spec, tree, levels, ws, dfs = _tree(spec, steps)
    m, N = spec.m, steps
    D = m * tree.control_count()
    level_of = np.repeat(np.arange(N), 2 ** np.arange(N))
    w_of = np.concatenate(ws[:N])
    meta = [ControlNode(m * i, int(level_of[j]), levels[level_of[j]].t, float(w_of[j]))
            for i, j in enumerate(np.argsort(np.concatenate(dfs)))]

    spectrum = _Spectrum(levels, m, D)
    lam_min, lam_max = spectrum.extremes()
    tiny = max(lam_max, -lam_min) / SINGULAR_COND
    if tiny == 0.0:                      # Lam = 0
        negative, singular = 0, True
    else:
        negative, below_lo, below_hi = spectrum.below([0.5 * NONCONVEX_TOL, -tiny, tiny]).tolist()
        singular = below_hi > below_lo
    min_eig = 2.0 * lam_min
    if negative:
        return DiscreteSolution(steps, None, None, None, min_eig, negative,
                                convex=False, singular=False, y0=None, nodes=meta)
    controls = _optimal_controls(tree_spec, tree, levels, ws, tiny)[0]
    u_opt = np.empty(D)
    for k in range(N):
        u_opt[(m * dfs[k])[:, None] + np.arange(m)] = controls[k]
    value, grad_norm, y0 = _sweep(tree_spec, tree, levels, ws, controls)
    return DiscreteSolution(steps, u_opt, value, grad_norm, min_eig, negative,
                            convex=True, singular=singular, y0=y0, nodes=meta)


def _tree_value(spec: ProblemSpec, steps: int) -> float:
    """``solve_discrete(spec, steps).value``, bitwise, with no bisection: that
    drops no pivot eigenvalue above bound / SINGULAR_COND, so if none is at or
    below it either, the two eliminations are one computation."""
    tree_spec, tree, levels, ws, _ = _tree(spec, steps)
    spectrum = _Spectrum(levels, spec.m, spec.m * tree.control_count())
    if spectrum.bound and not spectrum.below([0.5 * NONCONVEX_TOL])[0]:
        controls, dropped = _optimal_controls(tree_spec, tree, levels, ws,
                                              spectrum.bound / SINGULAR_COND)
        if not dropped:
            return _sweep(tree_spec, tree, levels, ws, controls)[0]
    sol = solve_discrete(spec, steps)
    if sol.convex:
        return sol.value
    raise ConvexityError(f"discrete problem at {steps} steps is nonconvex "
                         f"(hessian min eigenvalue {sol.hessian_min_eig:.6g})")


def replay_cost(spec: ProblemSpec, steps: int, control: np.ndarray) -> float:
    """Re-run the tree recursion numerically with fixed controls.

    Independent of the elimination: used to confirm that the reported value
    is the recursion's cost at the reported optimum, on the same node tables.
    """
    tree, spec = BinomialTree(steps, spec.grid.T), resample(spec, steps)
    form = cost_form(spec)
    A, B, C = (p.node_values() for p in (spec.A, spec.B, spec.C))
    (fa, fb), (xa, xb) = spec.f.node_parts(), spec.xi.node_parts()
    n, m = spec.n, spec.m
    N = steps
    dt, s = tree.dt, tree.sqrt_dt
    eye = np.eye(n)

    def width(level: int) -> int:
        return m * (2 ** (N - level) - 1)

    total = 0.0

    def visit(level: int, w: float, offset: int) -> np.ndarray:
        nonlocal total
        if level == N:
            return xa[N] + xb[N] * w
        wc = width(level + 1)
        y_up = visit(level + 1, w + s, offset + m)
        y_dn = visit(level + 1, w - s, offset + m + wc)
        Z = (y_up - y_dn) / (2.0 * s)
        u = control[offset:offset + m]
        rhs = 0.5 * (y_up + y_dn) - dt * (B[level] @ u + C[level] @ Z
                                          + (fa[level] + fb[level] * w))
        Y = np.linalg.solve(eye + dt * A[level], rhs)
        vec = np.concatenate([Y, Z, u])
        lin = form.a[level] + form.b[level] * w
        total += (0.5 ** level) * dt * (vec @ form.M[level] @ vec + 2.0 * lin @ vec)
        return Y

    Y0 = visit(0, 0.0, 0)
    total += float(Y0 @ spec.G @ Y0 + 2.0 * spec.g @ Y0)
    return float(total)


@dataclass(frozen=True)
class OracleComparison:
    """Tree values against the closed-form optimal value."""

    steps: tuple[int, ...]
    values: tuple[float, ...]
    gaps: tuple[float, ...]
    monotone: bool
    extrapolated: float
    extrapolated_gap: float


def compare(formula_value: float, spec: ProblemSpec,
            steps=(4, 6, 8, 10), solved=None) -> OracleComparison:
    """Gap table over tree resolutions with a Richardson limit in dt.

    The tree error is first order in dt, so the extrapolation
    (N2 v2 - N1 v1) / (N2 - N1) from the two finest resolutions removes the
    leading term; ``steps`` are at least two increasing counts.  One pivot
    count decides convexity, and the spectrum is bisected only if a pivot
    eigenvalue falls under bound / SINGULAR_COND.  The values are those of
    solve_discrete, bitwise.  A nonconvex resolution raises ConvexityError.
    ``solved`` maps step counts to values already solved, which are reused.
    """
    steps = tuple(steps)
    if len(steps) < 2 or any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"compare needs two or more increasing step counts, got {steps}")
    values = [solved[N] if N in (solved or {}) else _tree_value(spec, N) for N in steps]
    gaps = [abs(v - formula_value) for v in values]
    monotone = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    n1, n2 = steps[-2], steps[-1]
    v1, v2 = values[-2], values[-1]
    extrapolated = (n2 * v2 - n1 * v1) / (n2 - n1)
    return OracleComparison(steps, tuple(values), tuple(gaps), monotone, float(extrapolated),
                            float(abs(extrapolated - formula_value)))
