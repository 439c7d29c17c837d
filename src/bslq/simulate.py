"""Monte-Carlo simulation: Brownian ensembles, the dual SDE, and synthesis.

The optimal pair of the canonical problem is parameterised by the solution X
of a forward "dual" SDE driven by the Riccati solution and the auxiliary
BSDE:

    dX = ( [S1^T R(Sigma)^{-1} Sigma C(Sigma)^T + S2^T R22^{-1} B(Sigma)^T
            - A^T] X
           - [S1^T R(Sigma)^{-1} Sigma S1 + S2^T R22^{-1} S2] phi
           + S1^T R(Sigma)^{-1} beta - S1^T R(Sigma)^{-1} Sigma rho1
           - S2^T R22^{-1} rho2 + q ) dt
         - R(Sigma)^{-T} [C(Sigma)^T X - S1 phi - R11 beta - rho1] dW,
    X(0) = g,

simulated here with the left-point Euler-Maruyama scheme.  The optimal state,
martingale integrand and control are then pointwise algebraic in X:

    Y = -Sigma X + phi,
    Z = R(Sigma)^{-1} [Sigma C(Sigma)^T X - Sigma S1 phi - Sigma rho1 + beta],
    v = R22^{-1} [B(Sigma)^T X - S2 phi - rho2],

with v mapped back through the cross-term substitution to the original
control u, and the original problem's adjoint state recovered as
X* = X - H Y (the identity X*(0) = G Y(0) + g then holds by construction).
These synthesis formulas satisfy the first-order optimality relation exactly
at every path and node, independently of the time step.

Randomness is counter-based: path p of an ensemble with seed s draws its
increments from a Philox4x64 generator keyed by (s, p), with the k-th
increment produced from the k-th 64-bit word of that stream via the inverse
normal CDF.  The increment at (seed, path, step) is therefore a pure
function of those three integers, independent of how many paths or steps are
generated and of chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .bsde import AffineBsdeSolution, assemble_drift, solve_affine_bsde, solve_controlled_state
from .errors import SimulationError
from .grid import AffineProcess, TimeGrid, mv
from .ode import DEFAULT_SUBSTEPS
from .problem import ForwardProblemSpec, ProblemSpec
from .reduction import ReducedProblem, map_control, reduce_problem
from .riccati import ForwardRiccatiSolution, RiccatiSolution, solve_sigma


def philox(seed: int, salt: int) -> Philox:
    """Philox4x64 keyed by (seed, salt) modulo 2**64: seed -1 is seed 2**64 - 1."""
    return Philox(key=np.array([seed % 2 ** 64, salt % 2 ** 64], dtype=np.uint64))


def _path_normals(seed: int, path: int, count: int) -> np.ndarray:
    """Standard normals for one path of one ensemble; see module docstring."""
    raw = philox(seed, path).random_raw(count)
    u = (raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54
    return ndtri(u)


@dataclass(frozen=True, eq=False)
class BrownianEnsemble:
    """Reproducible scalar Brownian paths on a grid.

    ``increments[p, k]`` is W(t_{k+1}) - W(t_k); ``W[p, k]`` the running sum
    with W(., 0) = 0.
    """

    seed: int
    grid: TimeGrid
    increments: np.ndarray  # (paths, steps)
    W: np.ndarray           # (paths, steps + 1)

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    @classmethod
    def generate(cls, seed: int, paths: int, grid: TimeGrid) -> "BrownianEnsemble":
        inc = np.empty((paths, grid.steps))
        for p in range(paths):
            inc[p] = _path_normals(seed, p, grid.steps)
        inc *= np.sqrt(grid.dt)
        W = np.zeros((paths, grid.steps + 1))
        np.cumsum(inc, axis=1, out=W[:, 1:])
        return cls(seed, grid, inc, W)

    def coarsen(self, factor: int) -> "BrownianEnsemble":
        """Aggregate consecutive increments onto a grid coarsened by `factor`.

        This is the coupling used for strong-convergence measurements: the
        coarse path is the same Brownian path, summed upward from the finest
        level (never regenerated).
        """
        coarse = self.grid.coarsen(factor)
        inc = self.increments.reshape(self.paths, coarse.steps, factor).sum(axis=2)
        W = np.zeros((self.paths, coarse.steps + 1))
        np.cumsum(inc, axis=1, out=W[:, 1:])
        return BrownianEnsemble(self.seed, coarse, inc, W)

    def mean_consistency(self) -> tuple[float, float]:
        """|sample mean of W(T)| and its 4-sigma allowance 4 sqrt(T/paths)."""
        return (float(abs(self.W[:, -1].mean())),
                float(4.0 * np.sqrt(self.grid.T / self.paths)))


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated trajectories of the synthesized optimal quadruple.

    ``X`` is the original problem's adjoint state (X_dual - H Y); ``X_dual``
    the raw dual SDE solution.  They coincide whenever the quadratic-weight
    shift H vanishes.
    """

    brownian: BrownianEnsemble
    X: np.ndarray       # (paths, N+1, n)
    X_dual: np.ndarray  # (paths, N+1, n)
    u: np.ndarray       # (paths, N+1, m)
    Y: np.ndarray       # (paths, N+1, n)
    Z: np.ndarray       # (paths, N+1, n)

    @property
    def dt(self) -> float:
        return self.brownian.grid.dt

    @property
    def steps(self) -> int:
        return self.brownian.grid.steps


@dataclass(frozen=True, eq=False)
class ControlledTrajectories:
    """(Y, Z, u) sampled from exact affine representations; no adjoint."""

    brownian: BrownianEnsemble
    Y: np.ndarray
    Z: np.ndarray
    u: np.ndarray


def _euler_loop(X0: np.ndarray, drift_parts, diff_parts, brownian: BrownianEnsemble,
                what: str) -> np.ndarray:
    """Left-point Euler scheme for dX = (F X + c) dt + (D X + e) dW.

    ``drift_parts`` is (F, c) with F of shape (N+1, n, n) and c of shape
    (paths, N+1, n) (already evaluated pathwise); same for ``diff_parts``.
    """
    F, c = drift_parts
    D, e = diff_parts
    P = brownian.paths
    N = brownian.grid.steps
    dt = brownian.grid.dt
    X = np.empty((P, N + 1, X0.shape[-1]))
    X[:, 0, :] = X0
    x = X[:, 0, :]
    dW = brownian.increments
    for k in range(N):
        drift = x @ F[k].T + c[:, k, :]
        diff = x @ D[k].T + e[:, k, :]
        x = x + drift * dt + diff * dW[:, k, None]
        if not np.all(np.isfinite(x)):
            bad = int(np.argwhere(~np.isfinite(x))[0][0])
            raise SimulationError(
                f"{what} blew up at path {bad}, step {k + 1} "
                f"(t={(k + 1) * dt:g})"
            )
        X[:, k + 1, :] = x
    return X


def simulate_dual_sde(reduced: ReducedProblem, sigma: RiccatiSolution,
                      bsde: AffineBsdeSolution,
                      brownian: BrownianEnsemble) -> np.ndarray:
    """Euler-Maruyama simulation of the dual SDE; X(0) = g on every path."""
    spec = reduced.base
    A = spec.A.node_values()
    S1 = spec.S1.node_values()
    S2 = spec.S2.node_values()
    R11 = spec.R11.node_values()
    R22 = spec.R22.node_values()
    Sg, BS, CS = sigma.Sigma, sigma.BofSigma, sigma.CofSigma
    RSinv = sigma.RofSigmaInv
    S1t = np.swapaxes(S1, -1, -2)
    S2t = np.swapaxes(S2, -1, -2)

    s1_rinv = S1t @ RSinv
    s2_r22inv = np.swapaxes(np.linalg.solve(R22, S2), -1, -2)  # S2^T R22^{-1}
    F = s1_rinv @ Sg @ np.swapaxes(CS, -1, -2) + s2_r22inv @ np.swapaxes(BS, -1, -2) \
        - np.swapaxes(A, -1, -2)
    Gphi = -(s1_rinv @ Sg @ S1 + s2_r22inv @ S2)
    D = -np.swapaxes(RSinv, -1, -2) @ np.swapaxes(CS, -1, -2)

    W = brownian.W
    phi = bsde.phi.sample(W)
    beta = bsde.beta.a.node_values()          # deterministic integrand
    rho1 = spec.rho1.sample(W)
    rho2 = spec.rho2.sample(W)
    q = spec.q.sample(W)

    c = (mv(Gphi, phi) + mv(s1_rinv, beta) - mv(s1_rinv @ Sg, rho1)
         - mv(s2_r22inv, rho2) + q)
    RSinvT = np.swapaxes(RSinv, -1, -2)
    e = mv(RSinvT @ S1, phi) + mv(RSinvT @ R11, beta) + mv(RSinvT, rho1)

    X0 = np.broadcast_to(spec.g, (brownian.paths, spec.n))
    return _euler_loop(X0, (F, c), (D, e), brownian, "dual SDE")


def synthesize(reduced: ReducedProblem, sigma: RiccatiSolution,
               bsde: AffineBsdeSolution, X_dual: np.ndarray,
               brownian: BrownianEnsemble) -> PathEnsemble:
    """Pointwise synthesis of (u, Y, Z) and the original adjoint state.

    All formulas are algebraic in (X, phi, beta) at each node, so the
    first-order optimality relation of the original problem holds to
    rounding error regardless of the Euler step used for X.
    """
    spec = reduced.base
    S1 = spec.S1.node_values()
    S2 = spec.S2.node_values()
    R22 = spec.R22.node_values()
    Sg, BS, CS = sigma.Sigma, sigma.BofSigma, sigma.CofSigma
    RSinv = sigma.RofSigmaInv

    W = brownian.W
    phi = bsde.phi.sample(W)
    beta = bsde.beta.a.node_values()
    rho1 = spec.rho1.sample(W)
    rho2 = spec.rho2.sample(W)

    Y = -mv(Sg, X_dual) + phi
    Z = mv(RSinv @ Sg @ np.swapaxes(CS, -1, -2), X_dual) \
        - mv(RSinv @ Sg @ S1, phi) - mv(RSinv @ Sg, rho1) + mv(RSinv, beta)
    v_raw = mv(np.swapaxes(BS, -1, -2), X_dual) - mv(S2, phi) - rho2
    v = mv(np.linalg.inv(R22), v_raw)
    u = map_control(reduced, v, Z)
    X_adj = X_dual - mv(reduced.h.H, Y)
    return PathEnsemble(brownian, X=X_adj, X_dual=X_dual, u=u, Y=Y, Z=Z)


@dataclass(frozen=True, eq=False)
class OptimalSynthesis:
    """Bundle of everything the synthesis pipeline produces for one problem."""

    spec: ProblemSpec
    reduced: ReducedProblem
    sigma: RiccatiSolution
    bsde: AffineBsdeSolution
    ensemble: PathEnsemble


def synthesize_optimal(spec: ProblemSpec, brownian: BrownianEnsemble,
                       substeps: int = DEFAULT_SUBSTEPS) -> OptimalSynthesis:
    """Full pipeline: reduce, solve Riccati and BSDE, simulate, synthesize."""
    reduced = reduce_problem(spec, substeps)
    sigma = solve_sigma(reduced, substeps)
    drift = assemble_drift(reduced, sigma)
    bsde = solve_affine_bsde(drift, spec.xi, substeps)
    X_dual = simulate_dual_sde(reduced, sigma, bsde, brownian)
    ensemble = synthesize(reduced, sigma, bsde, X_dual, brownian)
    return OptimalSynthesis(spec, reduced, sigma, bsde, ensemble)


def sample_affine_control(spec: ProblemSpec, control: AffineProcess,
                          brownian: BrownianEnsemble,
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


@dataclass(frozen=True, eq=False)
class ForwardEnsemble:
    """Closed-loop trajectories of the forward problem."""

    brownian: BrownianEnsemble
    X: np.ndarray  # (paths, N+1, n)
    v: np.ndarray  # (paths, N+1, m)


def simulate_forward_closed_loop(spec: ForwardProblemSpec,
                                 psol: ForwardRiccatiSolution,
                                 adjoint: AffineBsdeSolution,
                                 brownian: BrownianEnsemble) -> ForwardEnsemble:
    """Euler-Maruyama simulation of the optimal forward closed loop.

    Feedback  v = -K X - (R + D^T P D)^{-1} (B^T eta + D^T zeta + D^T P sigma
    + rhoTilde)  with K the Riccati gain and (eta, zeta) the affine adjoint
    pair.
    """
    A = spec.cA.node_values()
    B = spec.cB.node_values()
    C = spec.cC.node_values()
    D = spec.cD.node_values()
    R = spec.cR.node_values()
    P = psol.P
    K = psol.gain
    W = brownian.W

    Dt = np.swapaxes(D, -1, -2)
    weight = R + Dt @ P @ D
    eta = adjoint.phi.sample(W)
    zeta = adjoint.beta.a.node_values()
    sig = spec.sigma.sample(W)
    rho = spec.rhoTilde.sample(W)
    bdrift = spec.b.sample(W)

    open_loop = mv(np.swapaxes(B, -1, -2), eta) + mv(Dt, zeta) + mv(Dt @ P, sig) + rho
    feed = -mv(np.linalg.inv(weight), open_loop)

    F = A - B @ K
    c = mv(B, feed) + bdrift
    Dd = C - D @ K
    e = mv(D, feed) + sig
    X = _euler_loop(np.broadcast_to(spec.x0, (brownian.paths, spec.n)),
                    (F, c), (Dd, e), brownian, "forward closed loop")
    v = -mv(K, X) + feed
    return ForwardEnsemble(brownian, X=X, v=v)
