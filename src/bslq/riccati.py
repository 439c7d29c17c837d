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

Sigma is symmetrised after every integration substep: the right-hand side
preserves symmetry analytically, so this only suppresses floating-point
drift.

Sigma and P are integrated once, over stage tables (:mod:`bslq.ode`); the
state at every RK4 evaluation is recorded for the linear BSDEs of
:mod:`bslq.bsde`.

For n = m = 1 the three RK4 loops run on Python floats, with right-hand
sides that read the coefficient tables as floats and keep the matrix forms'
operation order.  A 1x1 matmul is one product summed from +0.0 and a 1x1
solve is one division, so the paths and stages are bitwise those of the
matrix kernels, at a small fraction of the cost of numpy calls on 1x1
arrays.  Results keep their (.., 1, 1) shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, SingularityError
from .grid import TimeGrid
from .ode import DEFAULT_SUBSTEPS, OdeProblem, integrate, interior_derivative, rk4_stages
from .problem import ForwardProblemSpec, ProblemSpec

COND_LIMIT = 1e12
PSD_TOL = 1e-10
SYM_TOL = 1e-10


def _solve(mat: np.ndarray, rhs: np.ndarray, t: float, name: str) -> np.ndarray:
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"{name} singular at t={t:g}") from exc


def _on_floats(spec) -> bool:
    """Whether the RK4 loops of ``spec`` run on Python floats (n = m = 1)."""
    return spec.n == 1 and spec.m == 1


def _floats(x: np.ndarray) -> memoryview:
    """The entries of ``x``, read as Python floats.  A memoryview keeps the
    8-byte doubles; ``tolist`` would make a float object per entry, which
    raised the peak RSS of a scalar verify by about 1 MB."""
    return memoryview(x.ravel())


def _integrate(grid: TimeGrid, rhs, direction: str, substeps: int, anchor,
               record: bool = False):
    """RK4 with symmetrisation after every substep.  A float ``anchor`` runs
    the float loop; its path (and stages) come back with shape (.., 1, 1)."""
    problem = OdeProblem(grid, rhs, direction, substeps)
    if not isinstance(anchor, float):
        return integrate(problem, anchor, post_step=_sym, record=record)
    result = integrate(problem, anchor, post_step=_sym_float, record=record)
    return (tuple(x.reshape(-1, 1, 1) for x in result) if record
            else result.reshape(-1, 1, 1))


@dataclass(frozen=True, eq=False)
class HSolution:
    """Grid samples of the quadratic-weight shift H."""

    grid: TimeGrid
    H: np.ndarray  # (N+1, n, n)

    def is_zero(self) -> bool:
        return not np.any(self.H)

    def residual(self, spec: ProblemSpec) -> float:
        """Sup-norm defect of the shift equation, H' estimated by central
        differences at interior nodes."""
        sl, dH = interior_derivative(self.H, self.grid.dt)
        A = spec.A.node_values()[sl]
        Q = spec.Q.node_values()[sl]
        Hs = self.H[sl]
        res = dH + Hs @ A + np.swapaxes(A, -1, -2) @ Hs + Q
        return float(np.max(np.abs(res), initial=0.0))


def solve_h(spec: ProblemSpec, substeps: int = DEFAULT_SUBSTEPS) -> HSolution:
    """Integrate the shift equation forward from H(0) = -G.

    With G = 0 and Q identically zero the result is exactly zero at every
    node (all RK4 stages vanish).
    """
    times, index = rk4_stages(spec.grid, "forward", substeps)
    rhs, H0 = _h_pass(spec, spec.A.tabulate(times), spec.Q.tabulate(times), index, -spec.G)
    return HSolution(spec.grid, _integrate(spec.grid, rhs, "forward", substeps, H0))


def _h_pass(spec, A: np.ndarray, Q: np.ndarray, index: np.ndarray, anchor: np.ndarray):
    """Right-hand side and anchor of the shift equation, on floats when
    ``spec`` is scalar."""
    if _on_floats(spec):
        return _h_rhs_float(A[index], Q[index]), float(anchor[0, 0])
    return _h_rhs(A, Q, index), anchor


def _h_rhs(A: np.ndarray, Q: np.ndarray, index: np.ndarray):
    """Right-hand side H' = -(H A + A^T H + Q) of the shift equation, with
    A and Q tabulated at the stage times and ``index`` the table row of
    each RK4 evaluation."""
    def rhs(e, H):
        j = index[e]
        At = A[j]
        return -(H @ At + At.T @ H + Q[j])
    return rhs


def _h_rhs_float(A: np.ndarray, Q: np.ndarray):
    """:func:`_h_rhs` for n = 1, with A and Q given at every evaluation.

    A matmul sums from +0.0, so a zero product sum is +0.0; the ``+ 0.0``
    after the first products gives the float sums the same zero signs.
    """
    A, Q = _floats(A), _floats(Q)

    def rhs(e, h):
        a = A[e]
        return -(h * a + a * h + 0.0 + Q[e])
    return rhs


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _sym_float(y: float) -> float:
    return 0.5 * (y + y)


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

    def symmetry_error(self) -> float:
        return float(np.max(np.abs(self.Sigma - np.swapaxes(self.Sigma, -1, -2))))

    def psd_margin(self) -> float:
        """Smallest eigenvalue of Sigma over all nodes."""
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.Sigma + np.swapaxes(self.Sigma, -1, -2)))))

    def inverse_identity_error(self) -> float:
        """Sup-norm of R(Sigma)^{-1} Sigma - Sigma R(Sigma)^{-T}.

        The two products agree analytically; the gap measures how far the
        computed inverse drifts from that identity.
        """
        left = self.RofSigmaInv @ self.Sigma
        right = self.Sigma @ np.swapaxes(self.RofSigmaInv, -1, -2)
        return float(np.max(np.abs(left - right)))

    def equation_residual(self, spec: ProblemSpec) -> float:
        """Sup-norm residual of the Riccati equation on the grid samples,
        Sigma' estimated by central differences at interior nodes."""
        sl, dS = interior_derivative(self.Sigma, self.grid.dt)
        A = spec.A.node_values()[sl]
        R22 = spec.R22.node_values()[sl]
        S = self.Sigma[sl]
        BS = self.BofSigma[sl]
        CS = self.CofSigma[sl]
        RSinv = self.RofSigmaInv[sl]
        At = np.swapaxes(A, -1, -2)
        term_b = BS @ np.linalg.solve(R22, np.swapaxes(BS, -1, -2))
        term_c = CS @ RSinv @ S @ np.swapaxes(CS, -1, -2)
        res = dS - A @ S - S @ At + term_b + term_c
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


def sigma_derivative(t: float, S: np.ndarray, A, B, C, S1, S2, R11, R22) -> np.ndarray:
    """Right-hand side of the backward Riccati equation at one time point."""
    return _sigma_rhs(t, S, A, A.T, B, C, S1.T, S2.T, R11, R22, np.eye(S.shape[0]))


def _sigma_rhs(t, S, A, At, B, C, S1t, S2t, R11, R22, eye) -> np.ndarray:
    """:func:`sigma_derivative` with the transposes and the identity given."""
    BS = B + S @ S2t
    CS = C + S @ S1t
    RS = eye + S @ R11
    term_b = BS @ _solve(R22, BS.T, t, "R22")
    term_c = CS @ _solve(RS, S @ CS.T, t, "R(Sigma)")
    return A @ S + S @ At - term_b - term_c


def solve_sigma(problem, substeps: int = DEFAULT_SUBSTEPS) -> RiccatiSolution:
    """Solve the backward Riccati equation of a canonical-form problem.

    The shift H is first replayed backward on its own recorded pass; the
    source coefficients shifted by H at every RK4 evaluation are then formed
    in one batch (a canonical spec is its own source, H = 0), so the Sigma
    right-hand side only indexes arrays.  Every component of RK4 and of the
    symmetrisation is elementwise, so the two passes give the (H, Sigma)
    stage states of one joint pass bitwise; they are kept on the result for
    the auxiliary BSDE.

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
    cs = canonical_samples(src, lambda p: p.tabulate(times))

    h_rhs, H_T = _h_pass(spec, cs.A, cs.Q, index, H_T)
    _, H = _integrate(spec.grid, h_rhs, "backward", substeps, H_T, record=True)
    t = times[index]
    A, B, C, R22 = (x[index] for x in (cs.A, cs.B, cs.C, cs.R22))
    S1, S2, R11 = cs.shifted(H, index)
    if _on_floats(spec):
        rhs, S_T = _sigma_rhs_float(t, A, B, C, S1, S2, R11, R22), 0.0
    else:
        At, S1t, S2t = (np.swapaxes(x, -1, -2) for x in (A, S1, S2))
        eye = np.eye(spec.n)

        def rhs(e, S):
            return _sigma_rhs(t[e], S, A[e], At[e], B[e], C[e], S1t[e], S2t[e], R11[e],
                              R22[e], eye)
        S_T = np.zeros((spec.n, spec.n))

    path, stages = _integrate(spec.grid, rhs, "backward", substeps, S_T, record=True)
    return _derive_sigma_paths(spec, path, substeps, np.stack([H, stages], axis=1))


def _sigma_rhs_float(t, A, B, C, S1, S2, R11, R22):
    """:func:`_sigma_rhs` for n = m = 1, with every coefficient given at
    every evaluation (``+ 0.0`` as in :func:`_h_rhs_float`)."""
    t, A, B, C, S1, S2, R11, R22 = (_floats(x) for x in (t, A, B, C, S1, S2, R11, R22))

    def rhs(e, s):
        a, r22 = A[e], R22[e]
        bs = B[e] + s * S2[e]
        cs = C[e] + s * S1[e]
        rs = 1.0 + s * R11[e]
        try:
            return a * s + s * a + 0.0 - bs * (bs / r22) - cs * ((s * cs) / rs)
        except ZeroDivisionError:
            name = "R22" if r22 == 0.0 else "R(Sigma)"
            raise SingularityError(f"{name} singular at t={t[e]:g}") from None
    return rhs


def sigma_terms(Sigma, B, C, S1, S2, R11) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B(Sigma), C(Sigma), R(Sigma)) on a stack of times."""
    BofS = B + Sigma @ np.swapaxes(S2, -1, -2)
    CofS = C + Sigma @ np.swapaxes(S1, -1, -2)
    RofS = np.eye(Sigma.shape[-1]) + Sigma @ R11
    return BofS, CofS, RofS


def _derive_sigma_paths(spec: ProblemSpec, Sigma: np.ndarray, substeps=None,
                        stages=None) -> RiccatiSolution:
    nodes = spec.grid.nodes
    BofS, CofS, RofS = sigma_terms(Sigma, spec.B.node_values(), spec.C.node_values(),
                                   spec.S1.node_values(), spec.S2.node_values(),
                                   spec.R11.node_values())
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
    sym = 0.5 * (Sigma + np.swapaxes(Sigma, -1, -2))
    eigmin = np.min(np.linalg.eigvalsh(sym), axis=-1)
    worst = int(np.argmin(eigmin))
    if eigmin[worst] < -PSD_TOL:
        raise PositivityError(
            f"Sigma not positive semidefinite at node {worst} "
            f"(t={nodes[worst]:g}, min eigenvalue {eigmin[worst]:.3e})"
        )
    return RiccatiSolution(
        grid=spec.grid,
        Sigma=Sigma,
        BofSigma=BofS,
        CofSigma=CofS,
        RofSigma=RofS,
        RofSigmaInv=RofSinv,
        conditioning=float(np.min(1.0 / conds)),
        substeps=substeps,
        stages=stages,
    )


@dataclass(frozen=True, eq=False)
class ForwardRiccatiSolution:
    """P plus the feedback gain and the positivity record of R + D^T P D."""

    grid: TimeGrid
    P: np.ndarray          # (N+1, n, n)
    gain: np.ndarray       # (N+1, m, n)   (R + D^T P D)^{-1} (B^T P + D^T P C + S)
    min_eig_weight: np.ndarray  # (N+1,)   smallest eigenvalue of R + D^T P D
    substeps: int | None = None       # RK4 substeps of the recorded pass
    stages: np.ndarray | None = None  # (4 N substeps, n, n)  P per evaluation

    def psd_margin(self) -> float:
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.P + np.swapaxes(self.P, -1, -2)))))


def uniform_convexity_conditions(spec: ForwardProblemSpec, tol: float = PSD_TOL) -> bool:
    """Check the sufficient data conditions for uniform convexity:
    terminal weight, control weight and Schur complement all uniformly
    positive definite."""
    if np.min(np.linalg.eigvalsh(spec.cG)) < tol:
        return False
    Rv = spec.cR.node_values()
    Qv = spec.cQ.node_values()
    Sv = spec.cS.node_values()
    if np.min(np.linalg.eigvalsh(Rv)) < tol:
        return False
    schur = Qv - np.swapaxes(Sv, -1, -2) @ np.linalg.solve(Rv, Sv)
    return bool(np.min(np.linalg.eigvalsh(0.5 * (schur + np.swapaxes(schur, -1, -2)))) >= tol)


def forward_riccati_derivative(t: float, P: np.ndarray, A, B, C, D, Q, S, R) -> np.ndarray:
    """Right-hand side of the forward LQ Riccati equation at one time point."""
    W = R + D.T @ P @ D
    M = B.T @ P + D.T @ P @ C + S
    quad = M.T @ _solve(W, M, t, "R + D^T P D")
    return -(P @ A + A.T @ P + C.T @ P @ C + Q - quad)


def solve_forward_riccati(spec: ForwardProblemSpec,
                          substeps: int = DEFAULT_SUBSTEPS) -> ForwardRiccatiSolution:
    """Solve the forward LQ Riccati equation backward from P(T) = G_f.

    P at every RK4 evaluation is kept on the result for the adjoint BSDE.
    Raises :class:`PositivityError` if R + D^T P D loses positivity along
    the path.  When the uniform-convexity data conditions hold, P must be
    positive semidefinite and this is asserted.
    """
    times, index = rk4_stages(spec.grid, "backward", substeps)
    A, B, C, D, Q, S, R = (p.tabulate(times) for p in (
        spec.cA, spec.cB, spec.cC, spec.cD, spec.cQ, spec.cS, spec.cR))
    if _on_floats(spec):
        rhs = _forward_rhs_float(*(x[index] for x in (times, A, B, C, D, Q, S, R)))
        P_T = float(spec.cG[0, 0])
    else:
        def rhs(e, P):
            j = index[e]
            return forward_riccati_derivative(times[j], P, A[j], B[j], C[j], D[j],
                                              Q[j], S[j], R[j])
        P_T = spec.cG

    P, stages = _integrate(spec.grid, rhs, "backward", substeps, P_T, record=True)
    nodes = spec.grid.nodes
    Dv = spec.cD.node_values()
    Wv = spec.cR.node_values() + np.swapaxes(Dv, -1, -2) @ P @ Dv
    min_eig = np.min(np.linalg.eigvalsh(0.5 * (Wv + np.swapaxes(Wv, -1, -2))), axis=-1)
    worst = int(np.argmin(min_eig))
    if min_eig[worst] <= 0.0:
        raise PositivityError(
            f"R + D^T P D loses positivity at node {worst} "
            f"(t={nodes[worst]:g}, min eigenvalue {min_eig[worst]:.3e})"
        )
    gain = feedback_gain(P, spec.cB.node_values(), spec.cC.node_values(), Dv,
                         spec.cS.node_values(), spec.cR.node_values())
    sol = ForwardRiccatiSolution(spec.grid, P, gain, min_eig, substeps, stages)
    if uniform_convexity_conditions(spec) and sol.psd_margin() < -PSD_TOL:
        raise PositivityError(
            f"P not positive semidefinite (margin {sol.psd_margin():.3e}) "
            "although the uniform-convexity data conditions hold"
        )
    return sol


def _forward_rhs_float(t, A, B, C, D, Q, S, R):
    """:func:`forward_riccati_derivative` for n = m = 1, with every
    coefficient given at every evaluation (``+ 0.0`` as in
    :func:`_h_rhs_float`)."""
    t, A, B, C, D, Q, S, R = (_floats(x) for x in (t, A, B, C, D, Q, S, R))

    def rhs(e, p):
        a, c, d = A[e], C[e], D[e]
        dp = d * p
        w = R[e] + dp * d
        m = B[e] * p + dp * c + S[e]
        try:
            quad = m * (m / w)
        except ZeroDivisionError:
            raise SingularityError(f"R + D^T P D singular at t={t[e]:g}") from None
        return -(p * a + a * p + 0.0 + (c * p) * c + Q[e] - quad)
    return rhs


def feedback_gain(P, B, C, D, S, R) -> np.ndarray:
    """(R + D^T P D)^{-1} (B^T P + D^T P C + S) on a stack of times."""
    Dt = np.swapaxes(D, -1, -2)
    return np.linalg.solve(R + Dt @ P @ D, np.swapaxes(B, -1, -2) @ P + Dt @ P @ C + S)
