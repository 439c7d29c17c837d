"""Monte-Carlo simulation: Brownian ensembles, the dual SDE, and synthesis.

The optimum of the canonical problem is affine in the solution X of a
forward "dual" SDE.  With the Riccati solution Sigma and the auxiliary BSDE
pair (phi, beta), its state, martingale integrand and control are

    Y = -Sigma X + phi,
    Z = R(Sigma)^{-1} [Sigma C(Sigma)^T X - Sigma S1 phi - Sigma rho1 + beta],
    v = R22^{-1} [B(Sigma)^T X - S2 phi - rho2],

and the dual SDE is the adjoint equation of the maximum principle (Bismut
1973; Yong and Zhou 1999) along them:

    dX = (-A^T X + Q Y + S1^T Z + S2^T v + q) dt
         + (-C^T X + S1 Y + R11 Z + R12 v + rho1) dW,    X(0) = g,

whose coefficients of (Y, Z, v) are the Y and Z rows of the blocked weight
[[Q, S1^T, S2^T], [S1, R11, R12], [S2, R21, R22]].  It is simulated with the
left-point Euler-Maruyama scheme.

Every input except X is affine in W (phi = a + b W, beta deterministic, and
the data rho1, rho2, q by assumption), and K (a + W b) = K a + W (K b).  So
(Y, Z, v) = L (X, W, 1) with one slot map L of shape (N+1, 2n+m, n+2),
formed once on the node arrays, and each Euler coefficient is a map of the
same kind: the weight rows times L plus the data rows (-A^T, q) or
(-C^T, rho1).  The synthesis reads the outputs off L, with the cross-term
substitution u = v - R22^{-1} R21 Z folded into the rows of v, and
recovers the original problem's adjoint state as X* = X - H Y (the identity
X*(0) = G Y(0) + g then holds by construction).  The outputs are algebraic
in X, so they satisfy the first-order optimality relation exactly at every
path and node, whatever the time step.  The forward closed loop is run the
same way, on (X, v) = L (X, W, 1) with v = -K X + feed: drift [A, B] L + b
and diffusion [C, D] L + sigma.  No (paths, N+1, dim) sample of the data is
built.  Each ensemble keeps its L as ``slot_map``, through which
:mod:`bslq.evaluate` costs it.

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
from .reduction import ReducedProblem, reduce_problem
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


def _euler_loop(X0: np.ndarray, drift: np.ndarray, diffusion: np.ndarray,
                brownian: BrownianEnsemble, what: str) -> np.ndarray:
    """Left-point Euler scheme for dX = drift (X, W, 1) dt + diffusion (X, W, 1) dW.

    ``drift`` and ``diffusion`` are slot maps of shape (N+1, n, n+2).  The
    state is stored time-major, so each step reads and writes one contiguous
    block; the forcings, laid out by :func:`_time_major`, are read the same
    way.  Returns (paths, N+1, n).
    """
    n = X0.shape[-1]
    mu_X, sig_X = drift[..., :n], diffusion[..., :n]
    mu_f, sig_f = _time_major(drift, brownian.W), _time_major(diffusion, brownian.W)
    N, dt = brownian.grid.steps, brownian.grid.dt
    X = np.empty((N + 1, brownian.paths, n))
    X[0] = X0
    x = X[0]
    dW = np.ascontiguousarray(brownian.increments.T)
    for k in range(N):
        mu = x @ mu_X[k].T + mu_f[:, k, :]
        sig = x @ sig_X[k].T + sig_f[:, k, :]
        x = x + mu * dt + sig * dW[k, :, None]
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


def _time_major(L: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a + W b, the last two columns (b, a) of a slot map L, on every path,
    stored (N+1, paths, dim) and returned as the (paths, N+1, dim) view that
    :func:`_euler_loop` reads step by step."""
    Wt = np.ascontiguousarray(W.T)
    out = np.empty(Wt.shape + L.shape[1:2])
    for i in range(out.shape[-1]):
        col = out[..., i]
        np.multiply(Wt, L[:, None, i, -2], out=col)
        col += L[:, None, i, -1]
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


def _T(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _coefficient(rows, L: np.ndarray, K0: np.ndarray, data: AffineProcess) -> np.ndarray:
    """An Euler coefficient as a slot map: equation rows acting on the
    outputs L (X, W, 1), plus the data rows K0 X + a + W b."""
    return np.concatenate(rows, axis=-1) @ L + _slot_map((K0, _parts(data)))


def _optimal_map(reduced: ReducedProblem, sigma: RiccatiSolution,
                 bsde: AffineBsdeSolution) -> np.ndarray:
    """Slot map (N+1, 2n+m, n+2) of the reduced optimum: (Y, Z, v) = L (X, W, 1)."""
    spec = reduced.base
    S1 = spec.S1.node_values()
    S2 = spec.S2.node_values()
    R22inv = np.linalg.inv(spec.R22.node_values())
    Sg, RSinv = sigma.Sigma, sigma.RofSigmaInv
    phi, beta = _parts(bsde.phi), _parts(bsde.beta)
    RSg = RSinv @ Sg
    z_aff = -mv(RSg @ S1, phi) - mv(RSg, _parts(spec.rho1)) + mv(RSinv, beta)
    v_aff = mv(R22inv, -mv(S2, phi) - _parts(spec.rho2))
    return _slot_map((-Sg, phi), (RSg @ _T(sigma.CofSigma), z_aff),
                     (R22inv @ _T(sigma.BofSigma), v_aff))


def simulate_dual_sde(reduced: ReducedProblem, sigma: RiccatiSolution,
                      bsde: AffineBsdeSolution,
                      brownian: BrownianEnsemble) -> np.ndarray:
    """Euler-Maruyama simulation of the dual SDE, the adjoint equation along
    the optimal (Y, Z, v); X(0) = g on every path."""
    spec = reduced.base
    Q, S1, S2, R11, R12 = (p.node_values() for p in (spec.Q, spec.S1, spec.S2,
                                                      spec.R11, spec.R12))
    L = _optimal_map(reduced, sigma, bsde)
    drift = _coefficient((Q, _T(S1), _T(S2)), L, -_T(spec.A.node_values()), spec.q)
    diffusion = _coefficient((S1, R11, R12), L, -_T(spec.C.node_values()), spec.rho1)
    X0 = np.broadcast_to(spec.g, (brownian.paths, spec.n))
    return _euler_loop(X0, drift, diffusion, brownian, "dual SDE")


def synthesize(reduced: ReducedProblem, sigma: RiccatiSolution,
               bsde: AffineBsdeSolution, X_dual: np.ndarray,
               brownian: BrownianEnsemble) -> PathEnsemble:
    """Pointwise synthesis of (u, Y, Z) and the original adjoint state.

    The outputs are the reduced optimum's slot map applied to (X, W, 1) at
    each node, with u = v - R22^{-1} R21 Z folded into the rows of v.  They
    are algebraic in X, so the first-order optimality relation of the
    original problem holds to rounding error regardless of the Euler step
    used for X.
    """
    n = reduced.base.n
    L = _optimal_map(reduced, sigma, bsde)
    L[:, 2 * n:] -= reduced.cross_gain @ L[:, n:2 * n]
    Y, Z, u = (_gain_affine(rows, X_dual, brownian.W)
               for rows in np.split(L, [n, 2 * n], axis=1))
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


def feedforward(spec: ForwardProblemSpec, psol: ForwardRiccatiSolution,
                adjoint: AffineBsdeSolution) -> tuple[np.ndarray, np.ndarray]:
    """The closed loop's weight R + D^T P D, (N+1, m, m), and the node parts
    (2, N+1, m) of its open-loop term B^T eta + D^T zeta + D^T P sigma +
    rhoTilde, with (eta, zeta) the affine adjoint pair."""
    B = spec.cB.node_values()
    D = spec.cD.node_values()
    Dt = _T(D)
    weight = spec.cR.node_values() + Dt @ psol.P @ D
    open_loop = (mv(_T(B), _parts(adjoint.phi)) + mv(Dt, _parts(adjoint.beta))
                 + mv(Dt @ psol.P, _parts(spec.sigma)) + _parts(spec.rhoTilde))
    return weight, open_loop


def simulate_forward_closed_loop(spec: ForwardProblemSpec,
                                 psol: ForwardRiccatiSolution,
                                 adjoint: AffineBsdeSolution,
                                 brownian: BrownianEnsemble) -> ForwardEnsemble:
    """Euler-Maruyama simulation of the optimal forward closed loop.

    Feedback  v = -K X - (R + D^T P D)^{-1} (B^T eta + D^T zeta + D^T P sigma
    + rhoTilde)  with K the Riccati gain (:func:`feedforward`).
    """
    weight, open_loop = feedforward(spec, psol, adjoint)
    K = psol.gain
    eye = np.broadcast_to(np.eye(spec.n), K.shape[:1] + (spec.n, spec.n))
    L = _slot_map((eye, np.zeros((2,) + eye.shape[:2])),
                  (-K, -mv(np.linalg.inv(weight), open_loop)))
    A, B, C, D = (p.node_values() for p in (spec.cA, spec.cB, spec.cC, spec.cD))
    null = np.zeros_like(eye)
    X = _euler_loop(np.broadcast_to(spec.x0, (brownian.paths, spec.n)),
                    _coefficient((A, B), L, null, spec.b),
                    _coefficient((C, D), L, null, spec.sigma), brownian, "forward closed loop")
    return ForwardEnsemble(brownian, X=X, v=_gain_affine(L[:, spec.n:], X, brownian.W),
                           slot_map=L)
