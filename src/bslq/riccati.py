"""The three deterministic matrix ODEs behind the solver.

* The shift equation for H (linear, integrated forward from H(0) = -G):

      H' + H A + A^T H + Q = 0.

  Its solution absorbs the initial weight G and the running weight Q into
  the terminal cost during problem reduction.

* The backward Riccati equation for Sigma (terminal condition Sigma(T) = 0)
  of the cross-term-free problem:

      Sigma' - A Sigma - Sigma A^T + B(Sigma) R22^{-1} B(Sigma)^T
             + C(Sigma) R(Sigma)^{-1} Sigma C(Sigma)^T = 0,

  with  B(Sigma) = B + Sigma S2^T,  C(Sigma) = C + Sigma S1^T  and
  R(Sigma) = I + Sigma R11.  Under uniform convexity of the homogeneous
  cost, Sigma is symmetric positive semidefinite and R(Sigma) stays
  invertible; the solver checks both instead of assuming them.

* The forward LQ Riccati equation for P (terminal condition P(T) = G_f):

      P' + P A_f + A_f^T P + C_f^T P C_f + Q_f
         - (P B_f + C_f^T P D_f + S_f^T)(R_f + D_f^T P D_f)^{-1}
           (B_f^T P + D_f^T P C_f + S_f) = 0.

Sigma is symmetrised after every RK4 substep (the right-hand side keeps
symmetry analytically; this only suppresses rounding drift).  Sigma and P
are integrated once, over stage tables (:mod:`bslq.ode`); each solution
keeps the state and coefficient tables of every RK4 evaluation of its pass,
which the linear BSDEs of :mod:`bslq.bsde` read.

Each equation has one right-hand side, a closure over per-evaluation
coefficient tables in the operations of an arithmetic chosen from n and m.
Matrices use ``ndarray.dot`` (gemm, bitwise ``np.matmul`` when n, m >= 2)
and the LAPACK gufunc behind ``np.linalg.solve``, not numpy's wrappers.  In
the RK4 loop a solve is the bare gufunc: a singular matrix gives all NaN,
which the right-hand sides use only in products and sums, so it reaches the
loop's check of every node.  A pass that fails there is replayed from the
anchor on the checked solve, which keeps a finite result and otherwise
leaves it to ``np.linalg.solve`` for its error; doing the same operations,
the replay gives every bit and error of the checked solve.  For n = m = 1
the closure runs on Python floats over memoryviews of the same tables, each
operation bitwise its 1x1 matrix form: a matmul is one product summed from
+0.0, a solve one division.  Results keep their (.., 1, 1) shapes.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import IntegrationError, PositivityError, SingularityError
from .grid import TimeGrid
from .ode import DEFAULT_SUBSTEPS, OdeProblem, integrate, interior_derivative, rk4_stages
from .problem import ForwardProblemSpec, ProblemSpec

COND_LIMIT = 1e12
PSD_TOL = 1e-10


def _solve(mat: np.ndarray, rhs: np.ndarray, t: float, name: str) -> np.ndarray:
    """mat^{-1} rhs, as ``np.linalg.solve`` gives it (see the module docstring)."""
    with np.errstate(invalid="ignore"):
        x = _umath_linalg.solve(mat, rhs, signature="dd->d")
    if np.isfinite(x).all():
        return x
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"{name} singular at t={t:g}") from exc


def _bare_solve(mat: np.ndarray, rhs: np.ndarray, t: float, name: str) -> np.ndarray:
    return _umath_linalg.solve(mat, rhs, signature="dd->d")  # all NaN if mat is singular


def _mul(a: float, b: float) -> float:
    """A 1x1 matmul: one product, summed from +0.0."""
    return 0.0 + a * b


def _div(a: float, b: float, t: float, name: str) -> float:
    """A 1x1 solve a^{-1} b: one division."""
    try:
        return b / a
    except ZeroDivisionError:
        raise SingularityError(f"{name} singular at t={t:g}") from None


class _Arithmetic(NamedTuple):
    """The operations the right-hand sides are written in.  ``rows`` and
    ``rows_t`` turn a per-evaluation table (K, r, c) into what ``rhs(e, .)``
    indexes at ``e`` (rows or their transposes), ``div(a, b, t, name)`` is
    a^{-1} b, ``state`` makes an anchor the RK4 state, ``sym`` symmetrises."""

    rows: Callable
    rows_t: Callable
    mul: Callable
    div: Callable
    T: Callable
    eye: object
    state: Callable
    sym: Callable


def _view(x: np.ndarray) -> memoryview:
    """The entries of ``x``, read as Python floats.  A memoryview keeps the
    8-byte doubles; ``tolist`` would make a float object per entry, which
    raised the peak RSS of a scalar verify by about 1 MB."""
    return memoryview(x.ravel())


_FLOATS = _Arithmetic(rows=_view, rows_t=_view, mul=_mul, div=_div, T=lambda x: x, eye=1.0,
                      state=lambda x: float(x[0, 0]), sym=lambda y: 0.5 * (y + y))


def _matrices(n: int, m: int = 1) -> _Arithmetic:
    # ndarray.dot skips the matmul gufunc and is bitwise np.matmul, except at
    # an inner dimension of 1: there a -0.0 product stays -0.0, where matmul
    # sums it from +0.0.  Every kernel product has inner dimension n or m.
    return _Arithmetic(rows=np.asarray, rows_t=lambda x: np.swapaxes(x, -1, -2),
                       mul=np.ndarray.dot if min(n, m) > 1 else np.matmul, div=_solve,
                       T=lambda M: M.T, eye=np.eye(n), state=np.asarray,
                       sym=lambda M: 0.5 * (M + M.T))


def _on_floats(spec) -> bool:
    """Whether the RK4 loops of ``spec`` run on Python floats (n = m = 1)."""
    return spec.n == 1 and spec.m == 1


def _arithmetic(spec) -> _Arithmetic:
    return _FLOATS if _on_floats(spec) else _matrices(spec.n, spec.m)


def _integrate(ar: _Arithmetic, grid: TimeGrid, direction: str, substeps: int,
               anchor: np.ndarray, build, *args, record: bool = False):
    """RK4 on ``build(ar, *args)`` from the anchor matrix, symmetrising after
    every substep; a matrix pass runs on bare solves first (module docstring).
    The path (and stages) come back with the anchor's shape per row."""
    def run(ar):
        result = integrate(OdeProblem(grid, build(ar, *args), direction, substeps),
                           ar.state(anchor), post_step=ar.sym, record=record)
        shape = (-1,) + np.shape(anchor)
        return tuple(x.reshape(shape) for x in result) if record else result.reshape(shape)
    if ar is not _FLOATS:
        with suppress(IntegrationError):   # a failed pass is replayed on checked solves
            return run(ar._replace(div=_bare_solve))
    return run(ar)


@dataclass(frozen=True, eq=False)
class HSolution:
    """Grid samples of the quadratic-weight shift H."""

    grid: TimeGrid
    H: np.ndarray  # (N+1, n, n)

    def residual(self, spec: ProblemSpec) -> float:
        """Sup-norm defect of the shift equation, H' estimated by central
        differences at interior nodes."""
        sl, dH = interior_derivative(self.H, self.grid.dt)
        A, Q, Hs = spec.A.node_values()[sl], spec.Q.node_values()[sl], self.H[sl]
        res = dH + Hs @ A + np.swapaxes(A, -1, -2) @ Hs + Q
        return float(np.max(np.abs(res), initial=0.0))


def solve_h(spec: ProblemSpec, substeps: int = DEFAULT_SUBSTEPS) -> HSolution:
    """Integrate the shift equation forward from H(0) = -G.

    With G = 0 and Q identically zero the result is exactly zero at every
    node (all RK4 stages vanish).
    """
    times, index = rk4_stages(spec.grid, "forward", substeps)
    return HSolution(spec.grid, _integrate(_arithmetic(spec), spec.grid, "forward", substeps,
                                           -spec.G, _h_rhs, *(p.tabulate(times)[index]
                                                              for p in (spec.A, spec.Q))))


def _h_rhs(ar: _Arithmetic, A: np.ndarray, Q: np.ndarray):
    """Right-hand side H' = -(H A + A^T H + Q) of the shift equation, with
    A and Q given at every RK4 evaluation."""
    mul, A, At, Q = ar.mul, ar.rows(A), ar.rows_t(A), ar.rows(Q)

    def rhs(e, H):
        return -(mul(H, A[e]) + mul(At[e], H) + Q[e])
    return rhs


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Sigma plus the derived coefficient paths used everywhere downstream."""

    grid: TimeGrid
    Sigma: np.ndarray        # (N+1, n, n)
    BofSigma: np.ndarray     # (N+1, n, m)   B + Sigma S2^T
    CofSigma: np.ndarray     # (N+1, n, n)   C + Sigma S1^T
    RofSigma: np.ndarray     # (N+1, n, n)   I + Sigma R11
    RofSigmaInv: np.ndarray  # (N+1, n, n)
    conditioning: float      # min over nodes of 1 / cond(R(Sigma))
    substeps: int | None = None       # RK4 substeps of the recorded pass
    stages: np.ndarray | None = None  # (4 N substeps, 2, n, n)  (H, Sigma) per evaluation
    coefficients: object = None       # reduction.CanonicalSamples per evaluation

    def symmetry_error(self) -> float:
        return float(np.max(np.abs(self.Sigma - np.swapaxes(self.Sigma, -1, -2))))

    def psd_margin(self) -> float:
        """Smallest eigenvalue of Sigma over all nodes."""
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.Sigma + np.swapaxes(self.Sigma, -1, -2)))))

    def inverse_identity_error(self) -> float:
        """Sup-norm of R(Sigma)^{-1} Sigma - Sigma R(Sigma)^{-T}, zero
        analytically: how far the computed inverse drifts from that identity."""
        left = self.RofSigmaInv @ self.Sigma
        right = self.Sigma @ np.swapaxes(self.RofSigmaInv, -1, -2)
        return float(np.max(np.abs(left - right)))

    def equation_residual(self, spec: ProblemSpec) -> float:
        """Sup-norm residual of the Riccati equation on the grid samples,
        Sigma' estimated by central differences at interior nodes."""
        sl, dS = interior_derivative(self.Sigma, self.grid.dt)
        A, R22 = (p.node_values()[sl] for p in (spec.A, spec.R22))
        S, BS, CS, RSinv = (x[sl] for x in (self.Sigma, self.BofSigma, self.CofSigma,
                                            self.RofSigmaInv))
        term_b = BS @ np.linalg.solve(R22, np.swapaxes(BS, -1, -2))
        term_c = CS @ RSinv @ S @ np.swapaxes(CS, -1, -2)
        res = dS - A @ S - S @ np.swapaxes(A, -1, -2) + term_b + term_c
        return float(np.max(np.abs(res), initial=0.0))


def _canonical_base(problem) -> ProblemSpec:
    """Accept a reduced problem or a spec already in canonical form."""
    spec = getattr(problem, "base", problem)
    if (np.any(spec.G) or not spec.Q.is_zero()
            or not spec.R12.is_zero() or not spec.R21.is_zero()):
        raise ValueError(
            "Riccati solve requires the canonical form (G = 0, Q = 0, no "
            "cross weights); apply bslq.reduction.reduce_problem first"
        )
    return spec


def _sigma_rhs(ar: _Arithmetic, t, A, B, C, S1, S2, R11, R22):
    """Right-hand side of the backward Riccati equation, with the times
    ``t`` and the coefficients given at every RK4 evaluation."""
    mul, div, T, eye = ar.mul, ar.div, ar.T, ar.eye
    At, S1t, S2t = (ar.rows_t(x) for x in (A, S1, S2))
    t, A, B, C, R11, R22 = (ar.rows(x) for x in (t, A, B, C, R11, R22))

    def rhs(e, S):
        BS = B[e] + mul(S, S2t[e])
        CS = C[e] + mul(S, S1t[e])
        RS = eye + mul(S, R11[e])
        term_b = mul(BS, div(R22[e], T(BS), t[e], "R22"))
        term_c = mul(CS, div(RS, mul(S, T(CS)), t[e], "R(Sigma)"))
        return mul(A[e], S) + mul(S, At[e]) - term_b - term_c
    return rhs


def solve_sigma(problem, substeps: int = DEFAULT_SUBSTEPS) -> RiccatiSolution:
    """Solve the backward Riccati equation of a canonical-form problem.

    Stage 1 of the reduction runs once, at every RK4 evaluation (a canonical
    spec is its own source, H = 0).  The shift H is replayed backward on its
    own recorded pass, then the coefficients shifted by H are formed in one
    batch, so the Sigma right-hand side only indexes arrays.  RK4 and the
    symmetrisation are elementwise, so the two passes give the (H, Sigma)
    stage states of one joint pass bitwise; they and the stage-1 tables are
    kept on the result for the auxiliary BSDE.

    Post-conditions checked on the result: Sigma(T) = 0 exactly, symmetry
    and positive semidefiniteness within tolerance, and R(Sigma) invertible
    (condition number below 1e12) at every node.  Violations raise rather
    than return, since downstream formulas divide by R(Sigma) and R22.
    """
    from .reduction import canonical_samples  # local: reduction builds on this module

    spec = _canonical_base(problem)
    src, H_T = ((problem.source, problem.h.H[-1]) if problem is not spec
                else (spec, np.zeros((spec.n, spec.n))))
    times, index = rk4_stages(spec.grid, "backward", substeps)
    times = times[index]
    cs = canonical_samples(src, times)
    ar = _arithmetic(spec)
    _, H = _integrate(ar, spec.grid, "backward", substeps, H_T, _h_rhs, cs.A, cs.Q, record=True)
    path, stages = _integrate(ar, spec.grid, "backward", substeps, np.zeros_like(H_T), _sigma_rhs,
                              times, cs.A, cs.B, cs.C, *cs.shifted(H), cs.R22, record=True)
    return _derive_sigma_paths(spec, path, substeps, np.stack([H, stages], axis=1), cs)


def sigma_terms(Sigma, B, C, S1, S2, R11) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B(Sigma), C(Sigma), R(Sigma)) on a stack of times."""
    return (B + Sigma @ np.swapaxes(S2, -1, -2), C + Sigma @ np.swapaxes(S1, -1, -2),
            np.eye(Sigma.shape[-1]) + Sigma @ R11)


def _derive_sigma_paths(spec: ProblemSpec, Sigma: np.ndarray, substeps=None,
                        stages=None, coefficients=None) -> RiccatiSolution:
    nodes = spec.grid.nodes
    BofS, CofS, RofS = sigma_terms(Sigma, *(p.node_values() for p in (
        spec.B, spec.C, spec.S1, spec.S2, spec.R11)))
    # Invertibility is judged against the natural unit scale of I + Sigma R11
    # (a plain condition number would hide an absolutely tiny 1x1 entry).
    svals = np.linalg.svd(RofS, compute_uv=False)
    with np.errstate(divide="ignore"):
        conds = np.maximum(svals[:, 0], 1.0) / svals[:, -1]
    worst = int(np.argmax(conds))
    if not np.all(np.isfinite(conds)) or conds[worst] > COND_LIMIT:
        raise SingularityError(
            f"R(Sigma) numerically singular at node {worst} "
            f"(t={nodes[worst]:g}, cond={conds[worst]:.3e})"
        )
    RofSinv = np.linalg.inv(RofS)
    eigmin = np.min(np.linalg.eigvalsh(0.5 * (Sigma + np.swapaxes(Sigma, -1, -2))), axis=-1)
    worst = int(np.argmin(eigmin))
    if eigmin[worst] < -PSD_TOL:
        raise PositivityError(
            f"Sigma not positive semidefinite at node {worst} "
            f"(t={nodes[worst]:g}, min eigenvalue {eigmin[worst]:.3e})"
        )
    return RiccatiSolution(spec.grid, Sigma, BofS, CofS, RofS, RofSinv,
                           float(np.min(1.0 / conds)), substeps, stages, coefficients)


@dataclass(frozen=True, eq=False)
class ForwardRiccatiSolution:
    """P plus the feedback gain and the positivity record of R + D^T P D."""

    grid: TimeGrid
    P: np.ndarray          # (N+1, n, n)
    gain: np.ndarray       # (N+1, m, n)   (R + D^T P D)^{-1} (B^T P + D^T P C + S)
    min_eig_weight: np.ndarray  # (N+1,)   smallest eigenvalue of R + D^T P D
    substeps: int | None = None       # RK4 substeps of the recorded pass
    stages: np.ndarray | None = None  # (4 N substeps, n, n)  P per evaluation
    times: np.ndarray | None = None   # (4 N substeps,)  time of each evaluation
    coefficients: tuple | None = None  # (cA, cB, cC, cD, cQ, cS, cR) per evaluation

    def psd_margin(self) -> float:
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.P + np.swapaxes(self.P, -1, -2)))))


def uniform_convexity_conditions(spec: ForwardProblemSpec, tol: float = PSD_TOL) -> bool:
    """Check the sufficient data conditions for uniform convexity:
    terminal weight, control weight and Schur complement all uniformly
    positive definite."""
    if np.min(np.linalg.eigvalsh(spec.cG)) < tol:
        return False
    Rv, Qv, Sv = (p.node_values() for p in (spec.cR, spec.cQ, spec.cS))
    if np.min(np.linalg.eigvalsh(Rv)) < tol:
        return False
    schur = Qv - np.swapaxes(Sv, -1, -2) @ np.linalg.solve(Rv, Sv)
    return bool(np.min(np.linalg.eigvalsh(0.5 * (schur + np.swapaxes(schur, -1, -2)))) >= tol)


def _forward_rhs(ar: _Arithmetic, t, A, B, C, D, Q, S, R):
    """Right-hand side of the forward LQ Riccati equation, with the times
    ``t`` and the coefficients given at every RK4 evaluation."""
    mul, div, T = ar.mul, ar.div, ar.T
    At, Bt, Ct, Dt = (ar.rows_t(x) for x in (A, B, C, D))
    t, A, C, D, Q, S, R = (ar.rows(x) for x in (t, A, C, D, Q, S, R))

    def rhs(e, P):
        DtP = mul(Dt[e], P)
        W = R[e] + mul(DtP, D[e])
        M = mul(Bt[e], P) + mul(DtP, C[e]) + S[e]
        quad = mul(T(M), div(W, M, t[e], "R + D^T P D"))
        return -(mul(P, A[e]) + mul(At[e], P) + mul(mul(Ct[e], P), C[e]) + Q[e] - quad)
    return rhs


def solve_forward_riccati(spec: ForwardProblemSpec,
                          substeps: int = DEFAULT_SUBSTEPS) -> ForwardRiccatiSolution:
    """Solve the forward LQ Riccati equation backward from P(T) = G_f.

    P, the coefficients and the time of every RK4 evaluation are kept on
    the result for the adjoint BSDE.
    Raises :class:`PositivityError` if R + D^T P D loses positivity along
    the path.  When the uniform-convexity data conditions hold, P must be
    positive semidefinite and this is asserted.
    """
    times, index = rk4_stages(spec.grid, "backward", substeps)
    times = times[index]
    coefficients = tuple(p.tabulate(times) for p in (
        spec.cA, spec.cB, spec.cC, spec.cD, spec.cQ, spec.cS, spec.cR))
    P, stages = _integrate(_arithmetic(spec), spec.grid, "backward", substeps, spec.cG,
                           _forward_rhs, times, *coefficients, record=True)
    Dv = spec.cD.node_values()
    Wv = spec.cR.node_values() + np.swapaxes(Dv, -1, -2) @ P @ Dv
    min_eig = np.min(np.linalg.eigvalsh(0.5 * (Wv + np.swapaxes(Wv, -1, -2))), axis=-1)
    worst = int(np.argmin(min_eig))
    if min_eig[worst] <= 0.0:
        raise PositivityError(
            f"R + D^T P D loses positivity at node {worst} "
            f"(t={spec.grid.nodes[worst]:g}, min eigenvalue {min_eig[worst]:.3e})"
        )
    gain = feedback_gain(P, spec.cB.node_values(), spec.cC.node_values(), Dv,
                         spec.cS.node_values(), spec.cR.node_values())
    sol = ForwardRiccatiSolution(spec.grid, P, gain, min_eig, substeps, stages, times,
                                 coefficients)
    if uniform_convexity_conditions(spec) and sol.psd_margin() < -PSD_TOL:
        raise PositivityError(
            f"P not positive semidefinite (margin {sol.psd_margin():.3e}) "
            "although the uniform-convexity data conditions hold"
        )
    return sol


def feedback_gain(P, B, C, D, S, R) -> np.ndarray:
    """(R + D^T P D)^{-1} (B^T P + D^T P C + S) on a stack of times."""
    Dt = np.swapaxes(D, -1, -2)
    return np.linalg.solve(R + Dt @ P @ D, np.swapaxes(B, -1, -2) @ P + Dt @ P @ C + S)
