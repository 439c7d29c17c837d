"""Reference routes for the tests, kept out of the library.

The RK4 integrators are written against ``rhs(t, y)``: they drive
:func:`bslq.ode.integrate` through a right-hand side that looks its time up
in :func:`bslq.ode.rk4_stages`, so a test can state an equation as a
function of time instead of as an evaluation-indexed table.

:func:`integrate_linear_by_halves` is the BSDE recursion of
:func:`bslq.ode.integrate_linear` with the a and b halves held apart.

The rest costs and checks *sampled* trajectories, where the library works
on slot maps: exact (Y, Z, u) under an affine control, per-path costs of
sampled slots, the cost-shift identity of the reduction, the one-time
Riccati right-hand sides, the sample-mean check of an ensemble, and the
a-priori bound's moments from the fields themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bslq.bsde import solve_controlled_state
from bslq.errors import IntegrationError
from bslq.evaluate import CostForm, _dot, _square_sums, cost_form, mc_stderr
from bslq.grid import mv
from bslq.ode import DEFAULT_SUBSTEPS, OdeProblem, _apply, _substep_maps, integrate, rk4_stages
from bslq.riccati import _forward_rhs, _matrices, _sigma_rhs


def integrate_forward(grid, rhs, y0, substeps: int = DEFAULT_SUBSTEPS, post_step=None):
    """Integrate ``rhs(t, y)`` forward from y(0) = y0 at the RK4 stage times."""
    times, index = rk4_stages(grid, "forward", substeps)
    return integrate(OdeProblem(grid, lambda e, y: rhs(times[index[e]], y), "forward",
                                substeps), y0, post_step)


def integrate_backward(grid, rhs, yT, substeps: int = DEFAULT_SUBSTEPS, post_step=None):
    """Integrate ``rhs(t, y)`` backward from y(T) = yT at the RK4 stage times."""
    times, index = rk4_stages(grid, "backward", substeps)
    return integrate(OdeProblem(grid, lambda e, y: rhs(times[index[e]], y), "backward",
                                substeps), yT, post_step)


def integrate_linear_by_halves(grid, M, N, r0, r1, aT, bT, substeps: int = DEFAULT_SUBSTEPS):
    """:func:`bslq.ode.integrate_linear` on arrays, a and b held apart: per
    substep a' = X a + Y b + ca and b' = X b + cb by three ``_apply`` calls."""
    steps, n = grid.steps, M.shape[-1]
    a, b = aT.reshape(n, -1).astype(float), bT.reshape(n, -1).astype(float)
    a_path, b_path = np.empty((steps + 1,) + a.shape), np.empty((steps + 1,) + b.shape)
    a_path[steps], b_path[steps] = a, b
    with np.errstate(over="ignore", invalid="ignore"):
        X, Y, ca, cb = _substep_maps(grid, M, N, r0, r1, substeps)
        for k in range(steps - 1, -1, -1):
            for g in range((steps - 1 - k) * substeps, (steps - k) * substeps):
                a, b = _apply(X[g], a) + _apply(Y[g], b) + ca[g], _apply(X[g], b) + cb[g]
            a_path[k], b_path[k] = a, b
    finite = np.logical_and(*(np.isfinite(p[:steps]).all(axis=(1, 2)) for p in (a_path, b_path)))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[-1])
        raise IntegrationError(f"non-finite state at node {k} (t={grid.nodes[k]:g})")
    shape = (steps + 1, n) + aT.shape[1:]
    return a_path.reshape(shape), b_path.reshape(shape)


def sigma_derivative(t: float, S: np.ndarray, A, B, C, S1, S2, R11, R22) -> np.ndarray:
    """Right-hand side of the backward Riccati equation at one time point."""
    rows = (np.asarray(x)[None] for x in (A, B, C, S1, S2, R11, R22))
    return _sigma_rhs(_matrices(*np.shape(B)), np.array([t]), *rows)(0, S)


def forward_riccati_derivative(t: float, P: np.ndarray, A, B, C, D, Q, S, R) -> np.ndarray:
    """Right-hand side of the forward LQ Riccati equation at one time point."""
    rows = (np.asarray(x)[None] for x in (A, B, C, D, Q, S, R))
    return _forward_rhs(_matrices(*np.shape(B)), np.array([t]), *rows)(0, P)


def mean_consistency(brownian) -> tuple[float, float]:
    """|sample mean of W(T)| and its 4-sigma allowance 4 sqrt(T/paths)."""
    return (float(abs(brownian.W[:, -1].mean())),
            float(4.0 * np.sqrt(brownian.grid.T / brownian.paths)))


@dataclass(frozen=True, eq=False)
class ControlledTrajectories:
    """(Y, Z, u) sampled from exact affine representations; no adjoint."""

    brownian: object
    Y: np.ndarray
    Z: np.ndarray
    u: np.ndarray


def sample_affine_control(spec, control, brownian,
                          substeps: int = DEFAULT_SUBSTEPS) -> ControlledTrajectories:
    """Exact (Y, Z) trajectories of the state equation under an affine control.

    The backward equation is solved in closed affine form (see
    :func:`bslq.bsde.solve_controlled_state`) and evaluated pathwise; Z is
    the deterministic loading b(t).
    """
    sol = solve_controlled_state(spec, [control], substeps)[0]
    W = brownian.W
    Y = sol.phi.sample(W)
    Z = np.broadcast_to(sol.beta.a.node_values(), Y.shape).copy()
    u = control.sample(W)
    return ControlledTrajectories(brownian, Y=Y, Z=Z, u=u)


def form_parts(form: CostForm, s, W) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (boundary, running) parts of J(s) for sampled slots s,
    each of shape (paths, N+1, dim)."""
    N = len(form.M)
    s = np.concatenate(s, axis=-1)
    x, sk = s[:, form.at, :len(form.g)], s[:, :N]
    integrand = (_dot(mv(form.M, sk), sk)
                 + 2.0 * (_dot(sk, form.a) + W[:, :N] * _dot(sk, form.b)))
    return _dot(x @ form.G, x) + 2.0 * (x @ form.g), integrand.sum(axis=1) * form.dt


def path_costs(spec, Y: np.ndarray, Z: np.ndarray, u: np.ndarray,
               W: np.ndarray) -> np.ndarray:
    """Per-path cost of sampled (Y, Z, u) trajectories, shape (paths,): left-point
    quadrature of the running integrand, the initial terms exact at t = 0."""
    return sum(form_parts(cost_form(spec), (Y, Z, u), W))


def apply_cross_substitution(reduced, u: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Forward map v = u + R22^{-1} R21 Z (inverse of :func:`bslq.map_control`)."""
    return u + mv(reduced.cross_gain, Z)


@dataclass(frozen=True)
class ShiftIdentityReport:
    """Monte-Carlo check of J_original(u) = J_reduced(v) - shift."""

    residual: float
    stderr: float
    shift: float
    original: float
    reduced: float


def cost_shift_identity_check(spec, reduced, traj) -> ShiftIdentityReport:
    """Evaluate both sides of the cost identity on common random numbers.

    ``traj`` carries (Y, Z, u) trajectories simulated under ``spec`` together
    with their Brownian ensemble.  The residual is |J_orig - (J_red - shift)|
    with a Monte-Carlo standard error from the per-path differences; it is
    zero in continuous time, so what remains is quadrature bias O(dt) plus
    noise.
    """
    cost_orig = path_costs(spec, traj.Y, traj.Z, traj.u, traj.brownian.W)
    v = apply_cross_substitution(reduced, traj.u, traj.Z)
    cost_red = path_costs(reduced.base, traj.Y, traj.Z, v, traj.brownian.W)
    diff = cost_orig - (cost_red - reduced.constant_shift)
    return ShiftIdentityReport(
        residual=float(abs(diff.mean())),
        stderr=mc_stderr(diff),
        shift=reduced.constant_shift,
        original=float(cost_orig.mean()),
        reduced=float(cost_red.mean()),
    )


def apriori_by_fields(spec, ens) -> tuple[float, float]:
    """(lhs, data) of :func:`bslq.apriori_bound_check` from the fields Y, Z
    and u of the ensemble: per-path squares averaged over the paths."""
    N, dt = spec.grid.steps, spec.grid.dt
    W = ens.brownian.W
    Y, Z, u = ens["Y"], ens["Z"][:, :N], ens["u"][:, :N]
    lhs = float(np.max(np.mean(_dot(Y, Y), axis=0)) + np.mean(_dot(Z, Z).sum(axis=1) * dt))
    data = float(np.mean(_square_sums(spec.xi, W, slice(N, None)))
                 + np.mean(_dot(u, u).sum(axis=1) * dt)
                 + np.mean(_square_sums(spec.f, W, slice(N)) * dt))
    return lhs, data
