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

Every input except X is affine in W (phi = a + b W, beta deterministic, and
the data rho1, rho2, q by assumption), and K (a + W b) = K a + W (K b).  So
each forcing and each output has the node-affine form

    K X + c0 + W c1,

with K, c0 and c1 formed once on the (N+1)-node arrays: the dual drift and
diffusion forcings are c0 + W c1 and e0 + W e1, and

    Y = -Sigma X + phi,   Z = K_Z X + z0 + W z1,   u = K_u X + u0 + W u1,

where K_u = R22^{-1} B(Sigma)^T - R22^{-1} R21 K_Z folds the cross-term map
into one gain.  The forward closed loop is formed the same way, with
v = -K X + feed and feed affine.  No (paths, N+1, dim) sample of the data
is built.  Each ensemble keeps these gains as its slot map L_k, with the
outputs L_k (X, W, 1), through which :mod:`bslq.evaluate` costs it.

Randomness is counter-based: path p of an ensemble with seed s draws its
increments from a Philox4x64 generator keyed by (s, p), with the k-th
increment produced from the k-th 64-bit word of that stream via the inverse
normal CDF.  The increment at (seed, path, step) is therefore a pure
function of those three integers, independent of how many paths or steps are
generated and of chunking.  The generator is evaluated in numpy for a fixed
block of PATH_BLOCK paths at a time, every (path, counter) pair at once, and
reproduces numpy's ``Philox(key=(s, p)).random_raw`` bitwise.  scipy, which
supplies the inverse normal CDF, is loaded at the first draw, so commands
that never draw do not import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

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


# Philox4x64-10 (Salmon et al., SC 2011): round multipliers and key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Paths per kernel evaluation.  It bounds the kernel's temporaries (about
# 0.5 MB at 100 steps); the increments do not depend on it.
PATH_BLOCK = 1024


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x, the high word from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    mid = x_hi * m_lo
    cross = (x_lo * m_lo >> _S32) + (mid & _LO32) + x_lo * m_hi
    return x_hi * m_hi + (mid >> _S32) + (cross >> _S32), x * np.uint64(m)


def _philox_words(seed: int, first: int, paths: int, count: int) -> np.ndarray:
    """The first `count` words of ``philox(seed, p).random_raw`` for paths
    p = first, ..., first + paths - 1, as one (paths, count) array."""
    blocks = -(-count // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]  # counters from 1
    c1 = c2 = c3 = np.zeros((1, 1), np.uint64)
    k0 = seed % 2 ** 64
    k1 = np.arange(first, first + paths, dtype=np.uint64)[:, None]
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _PHILOX_W[0]) % 2 ** 64
        k1 = k1 + np.uint64(_PHILOX_W[1])  # array addition wraps silently
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(paths, 4 * blocks)[:, :count]


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
        from scipy.special import ndtri  # loaded at the first draw, not at import

        inc = np.empty((paths, grid.steps))
        for first in range(0, paths, PATH_BLOCK):
            block = inc[first:first + PATH_BLOCK]
            raw = _philox_words(seed, first, len(block), grid.steps)
            np.multiply(raw >> np.uint64(11), 2.0 ** -53, out=block)
            block += 2.0 ** -54  # u in (0, 1)
            ndtri(block, out=block)
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
    X: np.ndarray         # (paths, N+1, n)
    X_dual: np.ndarray    # (paths, N+1, n)
    u: np.ndarray         # (paths, N+1, m)
    Y: np.ndarray         # (paths, N+1, n)
    Z: np.ndarray         # (paths, N+1, n)
    slot_map: np.ndarray  # (N+1, 2n+m, n+2): (Y, Z, u) = L (X_dual, W, 1)


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
    The state is stored time-major, so each step reads and writes one
    contiguous block; forcings laid out by :func:`_time_major` are read the
    same way.  Returns (paths, N+1, n).
    """
    F, c = drift_parts
    D, e = diff_parts
    P = brownian.paths
    N = brownian.grid.steps
    dt = brownian.grid.dt
    X = np.empty((N + 1, P, X0.shape[-1]))
    X[0] = X0
    x = X[0]
    dW = np.ascontiguousarray(brownian.increments.T)
    for k in range(N):
        drift = x @ F[k].T + c[:, k, :]
        diff = x @ D[k].T + e[:, k, :]
        x = x + drift * dt + diff * dW[k, :, None]
        if not np.all(np.isfinite(x)):
            bad = int(np.argwhere(~np.isfinite(x))[0][0])
            raise SimulationError(
                f"{what} blew up at path {bad}, step {k + 1} "
                f"(t={(k + 1) * dt:g})"
            )
        X[k + 1] = x
    return np.ascontiguousarray(np.swapaxes(X, 0, 1))


def _parts(proc: AffineProcess) -> np.ndarray:
    """Node parts (a, b) of a + b W stacked on a leading axis: (2, N+1, dim).
    ``mv`` maps such a stack part by part, since K (a + W b) = K a + W (K b)."""
    return np.stack(proc.node_parts())


def _time_major(parts: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a + W b on every path, stored (N+1, paths, dim) and returned as the
    (paths, N+1, dim) view that :func:`_euler_loop` reads step by step."""
    Wt = np.ascontiguousarray(W.T)
    out = np.empty(Wt.shape + parts.shape[-1:])
    for i in range(out.shape[-1]):
        col = out[..., i]
        np.multiply(Wt, parts[1][:, None, i], out=col)
        col += parts[0][:, None, i]
    return np.swapaxes(out, 0, 1)


def _slot_map(*outputs) -> np.ndarray:
    """L (N+1, dim, n+2) with L (X, W, 1) = K X + a + W b, for (K, (a, b)) pairs."""
    return np.concatenate([np.concatenate((K, ab[1][..., None], ab[0][..., None]), axis=-1)
                           for K, ab in outputs], axis=-2)


def _gain_affine(L: np.ndarray, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """L (X, W, 1) = K X + a + W b at every path and node, for a slot map L."""
    out = mv(L[..., :-2], X)
    for i in range(out.shape[-1]):
        col = out[..., i]
        col += L[:, i, -1]
        col += W * L[:, i, -2]
    return out


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

    s1_rinv = S1t @ RSinv
    s2_r22inv = np.swapaxes(np.linalg.solve(R22, S2), -1, -2)  # S2^T R22^{-1}
    F = s1_rinv @ Sg @ np.swapaxes(CS, -1, -2) + s2_r22inv @ np.swapaxes(BS, -1, -2) \
        - np.swapaxes(A, -1, -2)
    Gphi = -(s1_rinv @ Sg @ S1 + s2_r22inv @ S2)
    D = -np.swapaxes(RSinv, -1, -2) @ np.swapaxes(CS, -1, -2)

    phi, beta = _parts(bsde.phi), _parts(bsde.beta)
    rho1, rho2, q = _parts(spec.rho1), _parts(spec.rho2), _parts(spec.q)
    c = (mv(Gphi, phi) + mv(s1_rinv, beta) - mv(s1_rinv @ Sg, rho1)
         - mv(s2_r22inv, rho2) + q)
    RSinvT = np.swapaxes(RSinv, -1, -2)
    e = mv(RSinvT @ S1, phi) + mv(RSinvT @ R11, beta) + mv(RSinvT, rho1)

    W = brownian.W
    X0 = np.broadcast_to(spec.g, (brownian.paths, spec.n))
    return _euler_loop(X0, (F, _time_major(c, W)), (D, _time_major(e, W)), brownian,
                       "dual SDE")


def synthesize(reduced: ReducedProblem, sigma: RiccatiSolution,
               bsde: AffineBsdeSolution, X_dual: np.ndarray,
               brownian: BrownianEnsemble) -> PathEnsemble:
    """Pointwise synthesis of (u, Y, Z) and the original adjoint state.

    All formulas are algebraic in (X, phi, beta) at each node, so the
    first-order optimality relation of the original problem holds to
    rounding error regardless of the Euler step used for X.  Each output is
    one gain applied to X plus an affine-in-W term formed at the nodes.
    """
    spec = reduced.base
    S1 = spec.S1.node_values()
    S2 = spec.S2.node_values()
    R22inv = np.linalg.inv(spec.R22.node_values())
    Sg, BS, CS = sigma.Sigma, sigma.BofSigma, sigma.CofSigma
    RSinv = sigma.RofSigmaInv

    phi, beta = _parts(bsde.phi), _parts(bsde.beta)
    rho1, rho2 = _parts(spec.rho1), _parts(spec.rho2)

    # Z = K_Z X + z_aff and u = K_u X + u_aff, with (a, b) node parts z_aff, u_aff.
    RSg = RSinv @ Sg
    K_Z = RSg @ np.swapaxes(CS, -1, -2)
    z_aff = -mv(RSg @ S1, phi) - mv(RSg, rho1) + mv(RSinv, beta)
    K_u = R22inv @ np.swapaxes(BS, -1, -2) - reduced.cross_gain @ K_Z
    u_aff = map_control(reduced, mv(R22inv, -mv(S2, phi) - rho2), z_aff)

    L = _slot_map((-Sg, phi), (K_Z, z_aff), (K_u, u_aff))
    Y, Z, u = (_gain_affine(rows, X_dual, brownian.W)
               for rows in np.split(L, [spec.n, 2 * spec.n], axis=1))
    X_adj = mv(reduced.h.H, Y)
    np.subtract(X_dual, X_adj, out=X_adj)  # in place: one (paths, N+1, n) array less at the peak
    return PathEnsemble(brownian, X=X_adj, X_dual=X_dual, u=u, Y=Y, Z=Z, slot_map=L)


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
    bsde = solve_affine_bsde(drift, spec.xi)
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
    slot_map: np.ndarray  # (N+1, n+m, n+2): (X, v) = L (X, W, 1)


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

    Dt = np.swapaxes(D, -1, -2)
    weight = R + Dt @ P @ D
    sig = _parts(spec.sigma)
    open_loop = (mv(np.swapaxes(B, -1, -2), _parts(adjoint.phi)) + mv(Dt, _parts(adjoint.beta))
                 + mv(Dt @ P, sig) + _parts(spec.rhoTilde))
    feed = -mv(np.linalg.inv(weight), open_loop)

    W = brownian.W
    c = _time_major(mv(B, feed) + _parts(spec.b), W)
    e = _time_major(mv(D, feed) + sig, W)
    X = _euler_loop(np.broadcast_to(spec.x0, (brownian.paths, spec.n)),
                    (A - B @ K, c), (C - D @ K, e), brownian, "forward closed loop")
    eye = np.broadcast_to(np.eye(spec.n), K.shape[:1] + (spec.n, spec.n))
    L = _slot_map((eye, np.zeros((2,) + eye.shape[:2])), (-K, feed))
    return ForwardEnsemble(brownian, X=X, v=_gain_affine(L[:, spec.n:], X, W), slot_map=L)
