"""Dense reference for the binomial-tree oracle (tests only).

Assembles the tree-discretised cost as an explicit quadratic

    J(u) = u^T Lam u + 2 lam^T u + c

over the stacked DFS-ordered controls and solves it with dense LAPACK:
``eigvalsh`` for the spectrum, ``cond`` for the singular flag and
``solve``/``lstsq`` for the optimum.  It costs O(8^N) and is meant for
N <= 8, as an independent cross-check of ``bslq.oracle.solve_discrete``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bslq.oracle import NONCONVEX_TOL, SINGULAR_COND, BinomialTree


def _affine_at(proc, t: float, w: float) -> np.ndarray:
    return proc.a(t) + proc.b(t) * w


def _blocked_weight(spec, t: float) -> np.ndarray:
    """[[Q, S1^T, S2^T], [S1, R11, R12], [S2, R21, R22]] at t, read from the
    paths themselves, so that this reference does not share the oracle's
    (``bslq.evaluate.cost_form``) assembly of the weight."""
    n = spec.n
    Q, S1, S2, R11, R12, R21, R22 = (p(t) for p in (spec.Q, spec.S1, spec.S2, spec.R11,
                                                    spec.R12, spec.R21, spec.R22))
    M = np.zeros((2 * n + spec.m,) * 2)
    M[:n, :n], M[:n, n:2 * n], M[:n, 2 * n:] = Q, S1.T, S2.T
    M[n:2 * n, :n], M[n:2 * n, n:2 * n], M[n:2 * n, 2 * n:] = S1, R11, R12
    M[2 * n:, :n], M[2 * n:, n:2 * n], M[2 * n:, 2 * n:] = S2, R21, R22
    return M


def assemble(spec, steps: int):
    """Return (Lam, lam, const, Y0) with Y0 the root Y as an affine row
    block (n, D + 1): columns are the controls, then a constant column."""
    tree = BinomialTree(steps, spec.grid.T)
    n, m = spec.n, spec.m
    N = steps
    dt, s = tree.dt, tree.sqrt_dt
    D = m * tree.control_count()
    nodes_t = np.linspace(0.0, spec.grid.T, N + 1)

    Lam = np.zeros((D, D))
    lam = np.zeros(D)
    const = 0.0
    eye = np.eye(n)
    weights = [_blocked_weight(spec, nodes_t[k]) for k in range(N)]

    def width(level: int) -> int:
        return m * (2 ** (N - level) - 1)

    def visit(level: int, w: float, offset: int) -> np.ndarray:
        nonlocal const
        t = nodes_t[level]
        if level == N:
            out = np.empty((n, 1))
            out[:, 0] = _affine_at(spec.xi, t, w)
            return out
        wk = width(level)
        wc = width(level + 1)
        y_up = visit(level + 1, w + s, offset + m)
        y_dn = visit(level + 1, w - s, offset + m + wc)

        Y_up = np.zeros((n, wk + 1))
        Y_up[:, m:m + wc] = y_up[:, :wc]
        Y_up[:, -1] = y_up[:, -1]
        Y_dn = np.zeros((n, wk + 1))
        Y_dn[:, m + wc:m + 2 * wc] = y_dn[:, :wc]
        Y_dn[:, -1] = y_dn[:, -1]

        Z = (Y_up - Y_dn) / (2.0 * s)
        U = np.zeros((m, wk + 1))
        U[:, :m] = np.eye(m)
        rhs = 0.5 * (Y_up + Y_dn) - dt * (spec.B(t) @ U + spec.C(t) @ Z)
        rhs[:, -1] -= dt * _affine_at(spec.f, t, w)
        Y = np.linalg.solve(eye + dt * spec.A(t), rhs)

        V = np.concatenate([Y, Z, U], axis=0)
        quad = V.T @ weights[level] @ V
        lin = np.concatenate([
            _affine_at(spec.q, t, w),
            _affine_at(spec.rho1, t, w),
            _affine_at(spec.rho2, t, w),
        ])
        Lvec = V.T @ lin
        scale = (0.5 ** level) * dt
        block = slice(offset, offset + wk)
        Lam[block, block] += scale * quad[:wk, :wk]
        lam[block] += scale * quad[:wk, wk] + scale * Lvec[:wk]
        const += scale * quad[wk, wk] + 2.0 * scale * Lvec[wk]
        return Y

    Y0 = visit(0, 0.0, 0)
    quad0 = Y0.T @ spec.G @ Y0
    L0 = Y0.T @ spec.g
    Lam += quad0[:D, :D]
    lam += quad0[:D, D] + L0[:D]
    const += quad0[D, D] + 2.0 * L0[D]
    return 0.5 * (Lam + Lam.T), lam, const, Y0


@dataclass(frozen=True, eq=False)
class DenseSolution:
    hessian: np.ndarray          # 2 Lam
    eigenvalues: np.ndarray      # of the Hessian, ascending
    negative_eigs: int           # Hessian eigenvalues below NONCONVEX_TOL
    convex: bool
    singular: bool
    control: np.ndarray | None
    value: float | None
    gradient_norm: float | None
    y0: np.ndarray | None

    @property
    def hessian_min_eig(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def hessian_norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))


def solve_dense(spec, steps: int) -> DenseSolution:
    """The dense solve the oracle used before its structured elimination."""
    Lam, lam, const, Y0 = assemble(spec, steps)
    D = lam.size
    hessian = 2.0 * Lam
    eigs = np.linalg.eigvalsh(hessian)
    negative = int(np.sum(eigs < NONCONVEX_TOL))
    if eigs[0] < NONCONVEX_TOL:
        return DenseSolution(hessian, eigs, negative, False, False,
                             None, None, None, None)
    singular = bool(np.linalg.cond(Lam) > SINGULAR_COND)
    if singular:
        u = np.linalg.lstsq(Lam, -lam, rcond=None)[0]
    else:
        u = np.linalg.solve(Lam, -lam)
    value = float(u @ Lam @ u + 2.0 * lam @ u + const)
    grad = 2.0 * (Lam @ u + lam)
    return DenseSolution(hessian, eigs, negative, True, singular, u, value,
                         float(np.linalg.norm(grad)), Y0[:, :D] @ u + Y0[:, D])
