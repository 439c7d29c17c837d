"""Exact solution of the auxiliary linear BSDEs via the affine ansatz.

Every backward equation this package meets has deterministic coefficients
and affine-in-W data, so its adapted solution (phi, beta) is itself affine:

    phi(t) = a(t) + b(t) W(t),        beta(t) = b(t).

Plugging the ansatz into  d phi = (M phi + N beta + r0 + r1 W) dt + beta dW
and matching the constant and W terms of the drift gives two coupled linear
ODEs, integrated backward from the affine components of the terminal value:

    a' = M a + N b + r0,      b' = M b + r1.

This is exact within the data class (no regression or conditional-
expectation estimation anywhere), which is what makes the downstream
optimality checks sharp.

The coefficient ODEs run through :func:`bslq.ode.integrate_linear`, batched
over right-hand sides sharing (M, N), on the drift's table at every RK4
evaluation.  The drifts built from a Riccati solution read its record, the
(H, Sigma) or P state and the coefficient tables of every RK4 evaluation, so
Sigma and P are integrated, and their coefficients tabulated, once.  The
controlled state equation tabulates its data and controls at the stage
times, each path by its own rule, as the Riccati tables do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import ConsistencyError
from .grid import AffineProcess, MatrixPath, TimeGrid, mv
from .ode import DEFAULT_SUBSTEPS, integrate_linear, interior_derivative, rk4_stages
from .problem import ForwardProblemSpec, ProblemSpec
from .riccati import ForwardRiccatiSolution, RiccatiSolution, feedback_gain, sigma_terms

CROSS_FORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BsdeDriftSpec:
    """Canonical drift  M phi + N beta + r0 + r1 W  sampled on the grid.

    The node arrays (r0, r1 may carry a trailing batch axis) are the
    reference for residual checks.  ``stages`` holds (M, N, r0, r1) at every
    RK4 evaluation of a backward pass at ``substeps`` RK4 substeps per
    interval, the coefficients the ODEs are integrated on.
    """

    grid: TimeGrid
    M: np.ndarray   # (N+1, n, n)
    N: np.ndarray   # (N+1, n, n)
    r0: np.ndarray  # (N+1, n)
    r1: np.ndarray  # (N+1, n)
    stages: tuple
    cross_form_gap: float = 0.0
    substeps: int = DEFAULT_SUBSTEPS


@dataclass(frozen=True, eq=False)
class AffineBsdeSolution:
    """Affine representation of (phi, beta).

    ``beta`` is emitted with deterministic part b(t) and zero W loading:
    within the affine class the martingale integrand is deterministic.
    """

    grid: TimeGrid
    phi: AffineProcess
    beta: AffineProcess
    drift: BsdeDriftSpec

    def residual(self) -> float:
        """Sup-norm defect of both coefficient ODEs, derivatives estimated
        by central differences at interior nodes."""
        a, b = self.phi.node_parts()
        dt = self.grid.dt
        sl, da = interior_derivative(a, dt)
        _, db = interior_derivative(b, dt)
        M, N = self.drift.M[sl], self.drift.N[sl]
        r0, r1 = self.drift.r0[sl], self.drift.r1[sl]
        res_a = da - (mv(M, a[sl]) + mv(N, b[sl]) + r0)
        res_b = db - (mv(M, b[sl]) + r1)
        return float(max(np.max(np.abs(res_a), initial=0.0),
                         np.max(np.abs(res_b), initial=0.0)))


def _collapsed_drift(A, S1, S2, R22, Sg, BS, CS, RSinv, f, q, rho1, rho2):
    """(M, N, r0, r1) of the collapsed form on a stack of times; the affine
    data are (a, b) pairs."""
    CR = CS @ RSinv
    M = A - BS @ np.linalg.solve(R22, S2) - CR @ Sg @ S1
    r0, r1 = (-mv(CR @ Sg, p1) - mv(BS, np.linalg.solve(R22, p2[..., None])[..., 0])
              + mv(Sg, qq) + ff for ff, qq, p1, p2 in zip(f, q, rho1, rho2))
    return M, CR, r0, r1


def assemble_drift(problem, sigma: RiccatiSolution) -> BsdeDriftSpec:
    """Assemble the drift of the auxiliary BSDE from a canonical problem.

    Collapsed form:

        M = A - B(Sigma) R22^{-1} S2 - C(Sigma) R(Sigma)^{-1} Sigma S1
        N = C(Sigma) R(Sigma)^{-1}
        r = -C(Sigma) R(Sigma)^{-1} Sigma rho1 - B(Sigma) R22^{-1} rho2
            + Sigma q + f

    The expanded form (with B(Sigma), C(Sigma) written out) is assembled as
    well and the two are compared; they agree identically, so any gap is a
    coding or data error and raises :class:`ConsistencyError`.  The same
    collapsed form is evaluated at every RK4 evaluation of the Riccati
    record, from its (H, Sigma) states and stage-1 tables, and the drift runs
    at the substep count of that record.
    """
    spec: ProblemSpec = getattr(problem, "base", problem)
    if spec.grid is not sigma.grid and spec.grid != sigma.grid:
        raise ValueError("problem and Riccati solution live on different grids")
    B, C, S1, S2, R22 = (p.node_values() for p in (spec.B, spec.C, spec.S1, spec.S2, spec.R22))
    Sg, RSinv = sigma.Sigma, sigma.RofSigmaInv
    affine = [spec.f.node_parts(), spec.q.node_parts(),
              spec.rho1.node_parts(), spec.rho2.node_parts()]
    M, N, r0, r1 = _collapsed_drift(spec.A.node_values(), S1, S2, R22, Sg,
                                    sigma.BofSigma, sigma.CofSigma, RSinv, *affine)

    # Expanded form of the same drift constants, kept as a self-check.
    SRS = Sg @ np.swapaxes(S1, -1, -2) @ RSinv @ Sg
    CRS = C @ RSinv @ Sg
    gap = 0.0
    for r, ff, qq, p1, p2 in zip((r0, r1), *affine):
        p2 = np.linalg.solve(R22, p2[..., None])[..., 0]
        r_exp = (-mv(CRS, p1) - mv(SRS, p1)
                 - mv(B, p2) - mv(Sg @ np.swapaxes(S2, -1, -2), p2) + mv(Sg, qq) + ff)
        gap = max(gap, float(np.max(np.abs(r - r_exp), initial=0.0)))
    if gap > CROSS_FORM_TOL:
        raise ConsistencyError(
            f"collapsed and expanded drift forms disagree (gap {gap:.3e})"
        )
    return BsdeDriftSpec(spec.grid, M, N, r0, r1, cross_form_gap=gap,
                         stages=_stage_drift(sigma), substeps=sigma.substeps)


def _stage_drift(sigma: RiccatiSolution) -> tuple:
    """Collapsed drift at every RK4 evaluation of the Riccati record."""
    cs, H, Sg = sigma.coefficients, sigma.stages[:, 0], sigma.stages[:, 1]
    S1, S2, R11 = cs.shifted(H)
    BS, CS, RS = sigma_terms(Sg, cs.B, cs.C, S1, S2, R11)
    return _collapsed_drift(cs.A, S1, S2, cs.R22, Sg, BS, CS, np.linalg.inv(RS),
                            cs.f, cs.shifted_q(H), cs.rho1, cs.rho2)


def solve_affine_bsde(drift: BsdeDriftSpec, xi: AffineProcess) -> AffineBsdeSolution:
    """Integrate the coefficient ODEs backward from (a(T), b(T)) = xi parts,
    at the drift's substep count.

    The terminal node of the result carries the affine components of the
    terminal value bitwise.
    """
    aT, bT = xi.at_terminal()
    a, b = integrate_linear(drift.grid, *drift.stages, aT, bT, drift.substeps)
    return _wrap_solution(drift, a, b)


def _wrap_solution(drift: BsdeDriftSpec, a_nodes: np.ndarray,
                   b_nodes: np.ndarray) -> AffineBsdeSolution:
    grid = drift.grid
    phi = AffineProcess(MatrixPath.sampled(a_nodes, grid), MatrixPath.sampled(b_nodes, grid))
    beta = AffineProcess.deterministic(MatrixPath.sampled(b_nodes, grid))
    return AffineBsdeSolution(grid, phi, beta, drift)


def solve_controlled_state(spec: ProblemSpec, controls: Sequence[AffineProcess],
                           substeps: int = DEFAULT_SUBSTEPS) -> list[AffineBsdeSolution]:
    """Adapted solutions (Y, Z) of the state BSDE under affine controls.

    dY = (A Y + B u + C Z + f) dt + Z dW with Y(T) = xi reduces, for affine
    u, to  a' = A a + B u0 + C b + f0  and  b' = A b + B u1 + f1.  All
    controls share (M, N) = (A, C) and ride one pass of the linear kernel,
    on A, B, C, f and the controls tabulated at the RK4 stage times.
    Used by the perturbation and convexity probes, where each solution
    plays the role of an exact reference trajectory.
    """
    grid, K = spec.grid, len(controls)
    times, index = rk4_stages(grid, "backward", substeps)

    def drift(at):
        """(A, C, r0, r1) with r = B u + f, one column per control, from
        ``at(path)``, a path's values at the times wanted."""
        B = at(spec.B)
        r0, r1 = (np.moveaxis(mv(B, _stacked(at, [getattr(c, part) for c in controls]))
                              + at(getattr(spec.f, part)), 0, -1) for part in "ab")
        return at(spec.A), at(spec.C), r0, r1

    A, C, r0, r1 = drift(MatrixPath.node_values)
    stages = tuple(x[index] for x in drift(lambda path: path.tabulate(times)))
    a, b = integrate_linear(grid, *stages,
                            *(np.repeat(x[:, None], K, axis=1) for x in spec.xi.at_terminal()),
                            substeps)
    return [_wrap_solution(BsdeDriftSpec(grid, A, C, r0[..., i], r1[..., i],
                                         stages[:2] + tuple(r[..., i] for r in stages[2:]),
                                         substeps=substeps),
                           a[..., i], b[..., i]) for i in range(K)]


def _stacked(at, paths: Sequence[MatrixPath]) -> np.ndarray:
    """``at(path)`` of every path on a leading axis, one ``at`` call per kind:
    the paths of a kind, stacked on a trailing axis, form one path."""
    order = sorted(range(len(paths)), key=lambda i: paths[i].kind)
    x = np.concatenate([at(MatrixPath(kind, np.stack([paths[i].values for i in cols], axis=-1),
                                      paths[0].grid))
                        for kind, cols in groupby(order, key=lambda i: paths[i].kind)], axis=-1)
    return np.moveaxis(x, -1, 0)[np.argsort(order)]


def _adjoint_drift(A, B, C, D, P, gain, sigma, rho, b, q):
    """(-Theta, -Lambda, -c) of :func:`solve_eta_zeta` on a stack of times."""
    L = np.swapaxes(gain, -1, -2)   # (P B + C^T P D + S^T)(R + D^T P D)^{-1}
    theta = np.swapaxes(A, -1, -2) - L @ np.swapaxes(B, -1, -2)
    lam = np.swapaxes(C, -1, -2) - L @ np.swapaxes(D, -1, -2)
    c0, c1 = (mv(lam @ P, s) - mv(L, r) + mv(P, bb) + qq
              for s, r, bb, qq in zip(sigma, rho, b, q))
    return -theta, -lam, -c0, -c1


def solve_eta_zeta(spec: ForwardProblemSpec, psol: ForwardRiccatiSolution) -> AffineBsdeSolution:
    """Adjoint pair (eta, zeta) of the forward closed loop, terminal gTilde.

    d eta = -(Theta eta + Lambda zeta + c) dt + zeta dW with

        Theta  = A^T - L B^T,   Lambda = C^T - L D^T,
        L      = (P B + C^T P D + S^T)(R + D^T P D)^{-1},
        c      = Lambda P sigma - L rhoTilde + P b + qTilde,

    which is the canonical affine form with M = -Theta, N = -Lambda,
    r = -c.  The stage coefficients come from the record of
    :func:`bslq.riccati.solve_forward_riccati` (P, cA ... cR and the time of
    every evaluation), at its substep count; only the affine data are
    tabulated here.  The drift node arrays come from the same solution.
    """
    grid = spec.grid
    affine = (spec.sigma, spec.rhoTilde, spec.b, spec.qTilde)
    P, t = psol.stages, psol.times
    A, B, C, D, _, S, R = psol.coefficients
    stages = _adjoint_drift(A, B, C, D, P, feedback_gain(P, B, C, D, S, R),
                            *((p.a.tabulate(t), p.b.tabulate(t)) for p in affine))
    drift = BsdeDriftSpec(grid, *_adjoint_drift(
        *(p.node_values() for p in (spec.cA, spec.cB, spec.cC, spec.cD)), psol.P, psol.gain,
        *(proc.node_parts() for proc in affine)), stages=stages, substeps=psol.substeps)
    a, b = integrate_linear(grid, *stages, spec.gTilde, np.zeros(spec.n), psol.substeps)
    return _wrap_solution(drift, a, b)
