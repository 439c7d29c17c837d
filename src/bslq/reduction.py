"""Two-stage transformation to the canonical cross-term-free problem.

Stage 1 (cross-term elimination).  With R22 positive definite, substituting
the control v = u + R22^{-1} R21 Z turns the problem into an equivalent one
without the (Z, u) cross weights:

    scriptC   = C  - B  R22^{-1} R21        (new Z coefficient in the dynamics)
    scriptS1  = S1 - R12 R22^{-1} S2
    scriptR11 = R11 - R12 R22^{-1} R21
    rho1      -> rho1 - R12 R22^{-1} rho2   (linear weight paired with Z)

Stage 2 (quadratic-weight shift).  With H solving the linear shift equation
(see :mod:`bslq.riccati`), integration by parts moves the initial weight G
and the running weight Q into a constant:

    S1H = scriptS1 + scriptC^T H,   S2H = S2 + B^T H,
    R11H = scriptR11 + H,           qH  = q + H f,

and the costs are related by

    J_original(xi; u) = J_reduced(xi; v) - E<H(T) xi, xi>.

The reduced problem has G = 0, Q = 0 and no cross weights, which is exactly
the form the Riccati synthesis consumes.  When the source problem is already
in that form the transformation is the identity, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReductionError, SpecValidationError
from .grid import AffineProcess, MatrixPath, mv
from .ode import DEFAULT_SUBSTEPS
from .problem import ProblemSpec, validate
from .riccati import HSolution, _solve, solve_h

R22_MIN_EIG = 1e-10


@dataclass(frozen=True, eq=False)
class CanonicalSamples:
    """Source coefficients after stage 1, stacked over grid nodes or RK4
    evaluations (leading axis); stage 2 is :meth:`shifted`/:meth:`shifted_q`.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    C: np.ndarray      # scriptC
    S1: np.ndarray     # scriptS1
    S2: np.ndarray
    R11: np.ndarray    # scriptR11
    R22: np.ndarray
    cross: np.ndarray  # R22^{-1} R21
    f: tuple           # affine parts (a, b) of f
    q: tuple           # ... of q
    rho1: tuple        # ... of rho1 - R12 R22^{-1} rho2
    rho2: tuple        # ... of rho2

    def shifted(self, H):
        """(S1H, S2H, R11H) for shift values H stacked like the samples."""
        return (self.S1 + np.swapaxes(self.C, -1, -2) @ H,
                self.S2 + np.swapaxes(self.B, -1, -2) @ H,
                self.R11 + H)

    def shifted_q(self, H) -> tuple:
        """Affine parts of qH = q + H f for shift values H."""
        return tuple(q + mv(H, f) for q, f in zip(self.q, self.f))


def canonical_samples(spec: ProblemSpec, times=None) -> CanonicalSamples:
    """Stage 1 of the reduction on the paths tabulated at ``times``, or at
    the grid nodes (``MatrixPath.node_values``) when ``times`` is None.

    A singular R22 raises :class:`SingularityError` naming the first time
    where it is singular.
    """
    sample = (MatrixPath.node_values if times is None
              else lambda p: p.tabulate(times))
    A, B, C, Q, S1, S2, R11, R12, R21, R22 = (sample(getattr(spec, name)) for name in (
        "A", "B", "C", "Q", "S1", "S2", "R11", "R12", "R21", "R22"))
    try:
        cross = np.linalg.solve(R22, R21)        # R22^{-1} R21, (K, m, n)
    except np.linalg.LinAlgError:
        for t, R in zip(spec.grid.nodes if times is None else times, R22):
            _solve(R, R, t, "R22")               # raises at the first singular R22
        raise
    r12_r22inv = np.swapaxes(cross, -1, -2)      # R12 R22^{-1} (symmetric R22)

    def parts(proc):
        return sample(proc.a), sample(proc.b)

    rho2 = parts(spec.rho2)
    rho1 = tuple(r1 - mv(r12_r22inv, r2) for r1, r2 in zip(parts(spec.rho1), rho2))
    return CanonicalSamples(
        A=A, B=B, Q=Q,
        C=C - B @ cross,
        S1=S1 - R12 @ np.linalg.solve(R22, S2),
        S2=S2,
        R11=R11 - R12 @ cross,
        R22=R22,
        cross=cross,
        f=parts(spec.f), q=parts(spec.q), rho1=rho1, rho2=rho2,
    )


@dataclass(frozen=True, eq=False)
class ReducedProblem:
    """Canonical-form problem plus everything needed to map back."""

    base: ProblemSpec
    source: ProblemSpec
    h: HSolution
    constant_shift: float   # E<H(T) xi, xi>
    cross_gain: np.ndarray  # (N+1, m, n)   R22^{-1} R21 of the source


def reduce_problem(spec: ProblemSpec, substeps: int = DEFAULT_SUBSTEPS) -> ReducedProblem:
    """Produce the equivalent canonical-form problem.

    Requires R22(t) positive definite at every node (minimum eigenvalue at
    least 1e-10); uniform convexity of the homogeneous cost implies this,
    and nothing downstream is meaningful without it.
    """
    report = validate(spec)
    if not report.ok:
        raise SpecValidationError(report)
    grid, n, m = spec.grid, spec.n, spec.m
    nodes = grid.nodes

    R22 = spec.R22.node_values()
    eig = np.min(np.linalg.eigvalsh(0.5 * (R22 + np.swapaxes(R22, -1, -2))), axis=-1)
    worst = int(np.argmin(eig))
    if eig[worst] < R22_MIN_EIG:
        raise ReductionError(
            f"R22 not positive definite at node {worst} "
            f"(t={nodes[worst]:g}, min eigenvalue {eig[worst]:.3e})"
        )

    cs = canonical_samples(spec)
    h = solve_h(spec, substeps)
    S1, S2, R11 = (MatrixPath.sampled(x, grid) for x in cs.shifted(h.H))

    def sampled(parts):
        return AffineProcess(*(MatrixPath.sampled(part, grid) for part in parts))

    xa, xb = spec.xi.at_terminal()
    HT = h.H[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        constant_shift = float(xa @ HT @ xa + grid.T * (xb @ HT @ xb))
    if not np.isfinite(constant_shift):
        raise ReductionError(f"constant shift E<H(T) xi, xi> is not finite: {constant_shift}")

    base = spec.replace(
        C=MatrixPath.sampled(cs.C, grid),
        G=np.zeros((n, n)),
        Q=MatrixPath.zeros((n, n), grid),
        S1=S1,
        S2=S2,
        R11=R11,
        R12=MatrixPath.zeros((n, m), grid),
        R21=MatrixPath.zeros((m, n), grid),
        q=sampled(cs.shifted_q(h.H)),
        rho1=sampled(cs.rho1),
    )
    base_report = validate(base)
    if not base_report.ok:
        raise SpecValidationError(base_report)
    return ReducedProblem(
        base=base,
        source=spec,
        h=h,
        constant_shift=constant_shift,
        cross_gain=cs.cross,
    )


def map_control(reduced: ReducedProblem, v: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Map a reduced-problem control back: u = v - R22^{-1} R21 Z.

    ``v`` has shape (..., N+1, m) and ``Z`` shape (..., N+1, n) with the
    node axis second-to-last.
    """
    return v - mv(reduced.cross_gain, Z)
