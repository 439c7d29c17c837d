"""Cost functionals, the closed-form optimal value, and optimality checks.

The Monte-Carlo side evaluates the quadratic cost on simulated trajectories
with left-point quadrature of the running integrand and exact evaluation of
the boundary terms, as the paper's block quadratic form (:class:`CostForm`).
The optimal control is affine in the dual state X, so the cost slots of the
optimal ensemble are s_k = L_k xi_k with xi = (X, W, 1) (not the terminal
value xi of V below), and each cost is one quadratic form in xi per node;
the perturbation and probe trajectories are the case xi = (W, 1).  The
formula side evaluates the closed-form optimal value

    V(xi) = E[ -<H(T) xi, xi> + 2 <phi(0), g> - <Sigma(0) g, g> ]
            + int_0^T ( closed-form expectation of the running integrand ) dt

entirely by deterministic quadrature: within the affine data class every
expectation appearing in the integrand is a polynomial in t through
E[W(t)] = 0 and E[W(t)^2] = t, so the formula side carries no sampling noise
and the Monte-Carlo side owns the whole error budget of any comparison.

The optimality checks implement three independent characterisations:

* stationarity: S2 Y + R21 Z - B^T X + R22 u + rho2 = 0 pointwise along the
  adjoint state X (one map on (X, W, 1)), an identity for synthesized optima;
* the quadratic expansion J(xi; u* + eps v) - J(xi; u*) = eps^2 J0(0; v)
  under common random numbers, for exact affine perturbations v, read off
  the exact per-path polynomial 2 eps C + eps^2 J0 in eps;
* a uniform-convexity probe taking min_v J0(0; v) / E int |v|^2 over
  random affine controls in exact expectation, with a certificate when it
  is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bsde import (AffineBsdeSolution, assemble_drift, solve_affine_bsde,
                   solve_controlled_state, solve_eta_zeta)
from .errors import IntegrationError
from .grid import AffineProcess, MatrixPath, TimeGrid, mv
from .ode import DEFAULT_SUBSTEPS
from .problem import ForwardProblemSpec, ProblemSpec, homogeneous, resample
from .reduction import ReducedProblem, reduce_problem
from .riccati import (ForwardRiccatiSolution, RiccatiSolution, solve_forward_riccati,
                      solve_sigma, uniform_convexity_conditions)
from .simulate import (BrownianEnsemble, PathEnsemble, _gain_affine, feedforward, philox,
                       simulate_forward_closed_loop, synthesize_optimal)


# ---------------------------------------------------------------------------
# Monte-Carlo cost evaluation
# ---------------------------------------------------------------------------


def mc_stderr(x: np.ndarray) -> float:
    """Monte-Carlo standard error of the mean of the per-path values ``x``."""
    P = x.shape[0]
    return float(x.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0


def _dot(x, y):
    """Inner product over the last axis, broadcast over the leading ones."""
    return np.einsum("...i,...i->...", x, y)


def _quad_sums(C, parts, nodes: slice) -> np.ndarray:
    """Per-path sum over ``nodes`` of xi_k^T C_k xi_k, xi = (*parts, 1), for
    parts (paths, N+1) and one (d, d) table C_k per node.  Each pair i <= j of
    parts is multiplied once and summed over the nodes against its coefficient
    in the symmetric part of C by one matrix-vector product, if nonzero."""
    S = C + C.swapaxes(-1, -2)  # twice the symmetric part
    xs = [x[:, nodes] for x in parts] + [1.0]
    out = np.full(xs[0].shape[0], 0.5 * S[:, -1, -1].sum())
    for i, x in enumerate(xs[:-1]):
        for j, y in enumerate(xs[i:], i):
            c = 0.5 * S[:, i, i] if j == i else S[:, i, j]
            if np.any(c):
                out += (x * y) @ c
    return out


def _square_sums(proc: AffineProcess, W, nodes: slice) -> np.ndarray:
    """Per-path sum of |a + W b|^2 over ``nodes``, L^T L on xi = (W, 1), L = (b, a)."""
    L = np.stack(proc.node_parts()[::-1], axis=-1)[nodes]
    return _quad_sums(L.swapaxes(-1, -2) @ L, (W,), nodes)


@dataclass(frozen=True, eq=False)
class CostForm:
    """The cost of one problem as the paper's block quadratic form.

    A trajectory enters as stacked slots s: (Y, Z, u) with
    M = [[Q, S1^T, S2^T], [S1, R11, R12], [S2, R21, R22]] and linear weights
    a + b W = (q, rho1, rho2) for a backward problem, (X, v) with
    M = [[cQ, cS^T], [cS, cR]] and (qTilde, rhoTilde) for a forward one.  Per
    path, J(s) = B(s, s) + 2 L(s) + <G x, x> + 2 <g, x> with x = s_0 at node
    ``at``, B(s, t) = sum_{k<N} <M_k s_k, t_k> dt and L(s) = sum_{k<N}
    (a_k + W_k b_k) . s_k dt.

    An ensemble with slot map L, s_k = L_k xi_k, has the integrand
    xi_k^T C_k xi_k with C_k = L_k^T M_k L_k plus the linear rows L_k^T a_k
    (on the 1 of xi) and L_k^T b_k (on its W), and a boundary form of the
    same kind at node ``at`` (:meth:`tables`).
    """

    M: np.ndarray  # (N, D, D) over the stacked slots
    a: np.ndarray  # (N, D)
    b: np.ndarray  # (N, D)
    G: np.ndarray
    g: np.ndarray
    at: int
    dt: float

    def tables(self, Ls, Lt=None, weight: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
        """Boundary table (d, d) of <G x_s, x_t> + weight <g, x_t> and running
        tables (N, d, d) of B(s, t) + weight L(t) for s = L_s xi and t = L_t xi,
        xi = (..., W, 1), slot maps (N+1, D, d), a narrower L_t acting on the
        trailing parts.  With ``Lt`` None and weight 2 these are J(s)'s."""
        Lt = Ls if Lt is None else np.pad(Lt, ((0, 0), (0, 0), (Ls.shape[-1] - Lt.shape[-1], 0)))
        N, at, n = len(self.M), self.at, len(self.g)
        run = Ls[:N].swapaxes(-1, -2) @ self.M @ Lt[:N]
        run[:, -1] += weight * np.einsum("ki,kij->kj", self.a, Lt[:N])
        run[:, -2] += weight * np.einsum("ki,kij->kj", self.b, Lt[:N])
        boundary = Ls[at, :n].T @ self.G @ Lt[at, :n]
        boundary[-1] += weight * (self.g @ Lt[at, :n])
        return boundary, run

    def xi_parts(self, xi, Ls, Lt=None, weight: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
        """Per-path boundary and running parts of :meth:`tables` on ``xi``,
        the d - 1 parts before its 1."""
        boundary, run = self.tables(Ls, Lt, weight)
        return (_quad_sums(boundary[None], xi, slice(self.at, self.at + 1)),
                _quad_sums(run, xi, slice(len(self.M))) * self.dt)


def cost_form(spec) -> CostForm:
    """The :class:`CostForm` of a backward or a forward problem."""
    N = spec.grid.steps

    def table(path):
        return path.node_values()[:N]

    if isinstance(spec, ForwardProblemSpec):
        Q, S, R = map(table, (spec.cQ, spec.cS, spec.cR))
        M = [[Q, S.swapaxes(-1, -2)], [S, R]]
        linear = (spec.qTilde, spec.rhoTilde)
        G, g, at = spec.cG, spec.gTilde, N
    else:
        Q, S1, S2, R11, R12, R21, R22 = map(table, (spec.Q, spec.S1, spec.S2, spec.R11,
                                                    spec.R12, spec.R21, spec.R22))
        M = [[Q, S1.swapaxes(-1, -2), S2.swapaxes(-1, -2)], [S1, R11, R12], [S2, R21, R22]]
        linear = (spec.q, spec.rho1, spec.rho2)
        G, g, at = spec.G, spec.g, 0
    a, b = (np.concatenate([table(getattr(p, part)) for p in linear], axis=-1)
            for part in "ab")
    return CostForm(np.block(M), a, b, G, g, at, spec.grid.dt)


@dataclass(frozen=True)
class CostReport:
    """Monte-Carlo cost estimate with its sampling error and provenance.

    ``initial_term`` is the mean boundary term: the t = 0 terms of a
    backward cost, the t = T terms of a forward one.
    """

    estimate: float
    stderr: float
    paths: int
    steps: int
    seed: int
    initial_term: float
    running_term: float


def evaluate_cost(spec, ens: PathEnsemble) -> CostReport:
    """Cost report for a synthesized backward or a forward closed-loop
    ensemble: the quadratic form in xi through its slot map, not its
    fields Y, Z, u or v, reduced by one fixed sum."""
    xi = (*np.moveaxis(ens.state, -1, 0), ens.brownian.W)  # the parts of xi before its 1
    boundary, running = cost_form(spec).xi_parts(xi, ens.slot_map)
    costs = boundary + running
    P = costs.shape[0]
    return CostReport(
        estimate=float(np.sum(costs) / P),
        stderr=mc_stderr(costs),
        paths=P,
        steps=spec.grid.steps,
        seed=ens.brownian.seed,
        initial_term=float(np.sum(boundary) / P),
        running_term=float(np.sum(running) / P),
    )


# ---------------------------------------------------------------------------
# Closed-form optimal value
# ---------------------------------------------------------------------------


def value_formula(spec: ProblemSpec, reduced: ReducedProblem,
                  sigma: RiccatiSolution, bsde: AffineBsdeSolution) -> float:
    """Optimal value by deterministic quadrature of the closed form.

    All expectations are reduced to polynomials in t via the affine
    representations; the running integrand is integrated with the trapezoid
    rule on the grid and the terminal-shift constant is subtracted.
    """
    base = reduced.base
    t = base.grid.nodes
    S1, S2, R11, R22 = (p.node_values() for p in (base.S1, base.S2, base.R11, base.R22))
    Sg = sigma.Sigma
    RSinv = sigma.RofSigmaInv
    R22inv = np.linalg.inv(R22)
    S1t = np.swapaxes(S1, -1, -2)
    S2t = np.swapaxes(S2, -1, -2)

    aphi, bphi = bsde.phi.node_parts()
    r1a, r1b = base.rho1.node_parts()
    r2a, r2b = base.rho2.node_parts()
    qa, qb = base.q.node_parts()

    def e_inner(Mu0, Mu1, v0, v1):
        return _dot(Mu0, v0) + t * _dot(Mu1, v1)

    rs_sg = RSinv @ Sg
    term1 = -e_inner(mv(rs_sg, r1a), mv(rs_sg, r1b), r1a, r1b)
    term2 = -e_inner(mv(R22inv, r2a), mv(R22inv, r2b), r2a, r2b)
    term3 = 2.0 * _dot(mv(RSinv, bphi), r1a)
    term4 = _dot(mv(R11 @ RSinv, bphi), bphi)
    w0 = mv(S1t @ RSinv, bphi) - mv(S1t @ rs_sg, r1a) - mv(S2t @ R22inv, r2a) + qa
    w1 = -mv(S1t @ rs_sg, r1b) - mv(S2t @ R22inv, r2b) + qb
    term5 = 2.0 * e_inner(w0, w1, aphi, bphi)
    Mq = S1t @ rs_sg @ S1 + S2t @ R22inv @ S2
    term6 = -e_inner(mv(Mq, aphi), mv(Mq, bphi), aphi, bphi)

    integrand = term1 + term2 + term3 + term4 + term5 + term6
    running = float(np.trapezoid(integrand, dx=base.grid.dt))
    g = base.g
    with np.errstate(over="ignore", invalid="ignore"):  # a finite g may overflow here
        head = 2.0 * float(aphi[0] @ g) - float(g @ sigma.Sigma[0] @ g)
    value = head + running - reduced.constant_shift
    if not math.isfinite(value):
        raise IntegrationError(f"optimal value is not finite: {value}")
    return value


def solve_value(spec: ProblemSpec, substeps: int = DEFAULT_SUBSTEPS):
    """Convenience: reduce, solve, and return (value, reduced, sigma, bsde)."""
    reduced = reduce_problem(spec, substeps)
    sigma = solve_sigma(reduced, substeps)
    bsde = solve_affine_bsde(assemble_drift(reduced, sigma), spec.xi)
    return value_formula(spec, reduced, sigma, bsde), reduced, sigma, bsde


# ---------------------------------------------------------------------------
# Stationarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationarityReport:
    sup: float
    rms: float


def stationarity_residual(spec: ProblemSpec, ensemble: PathEnsemble) -> StationarityReport:
    """Pointwise residual of the first-order condition over all paths/nodes.

    Evaluated with the original problem's coefficients as one map on the
    ensemble's (X, W, 1), from its fields' maps and rho2's node parts; for
    synthesized optima it vanishes to rounding at every node, whatever the step.
    """
    S2, R21, R22, B = (p.node_values() for p in (spec.S2, spec.R21, spec.R22, spec.B))
    R = (S2 @ ensemble.rows("Y") + R21 @ ensemble.rows("Z")
         - np.swapaxes(B, -1, -2) @ ensemble.rows("X") + R22 @ ensemble.rows("u"))
    R[..., -2:] += np.stack(spec.rho2.node_parts()[::-1], axis=-1)
    res = _gain_affine(R, ensemble.state, ensemble.brownian.W)
    return StationarityReport(
        sup=float(np.max(np.abs(res))),
        rms=float(np.sqrt(np.mean(res ** 2))),
    )


# ---------------------------------------------------------------------------
# Perturbation expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationRow:
    eps: float
    cost_diff: float        # J(xi; u* + eps v) - J(xi; u*)
    diff_stderr: float
    quadratic_term: float   # eps^2 J0(0; v)
    defect: float           # cost_diff - quadratic_term
    defect_stderr: float


@dataclass(frozen=True)
class PerturbationReport:
    rows: list[PerturbationRow]
    j0_value: float
    j0_stderr: float


def perturbation_identity(spec: ProblemSpec, ensemble: PathEnsemble,
                          v: AffineProcess, eps_grid,
                          substeps: int = DEFAULT_SUBSTEPS,
                          state: AffineBsdeSolution | None = None) -> PerturbationReport:
    """Table of J(xi; u* + eps v) - J(xi; u*) - eps^2 J0(0; v) over eps.

    The perturbed trajectories are exact by superposition: (Y_v, Z_v) solves
    the homogeneous-data state equation under v in closed affine form, and
    the solution under u* + eps v is the base trajectory plus eps times that.
    With M and G symmetric the cost is exactly quadratic, so per path the
    difference is the polynomial 2 eps C + eps^2 J0(0; v), J0 the cost of
    :func:`homogeneous` data, with C = B(s*, t) + L(t) + <G x*, x_t> +
    <g, x_t> the cross term (zero in expectation at the optimum).  Both are
    costed through slot maps, not sampled arrays: that of t = (Y_v, Z_v, v)
    on xi = (W, 1) (:func:`controlled_map`) and the ensemble's.  The defect
    2 eps C carries only quadrature bias and common-random-number noise.
    ``state`` is (Y_v, Z_v) from a batched :func:`solve_controlled_state` call.
    """
    hspec = homogeneous(spec)
    W = ensemble.brownian.W
    if state is None:
        state = solve_controlled_state(hspec, [v], substeps)[0]
    L_v = controlled_map(state, v)
    j0 = sum(cost_form(hspec).xi_parts((W,), L_v))
    xi = (*np.moveaxis(ensemble.state, -1, 0), W)
    cross = sum(cost_form(spec).xi_parts(xi, ensemble.slot_map, L_v, 1.0))
    rows = []
    for eps in eps_grid:
        defect = 2.0 * eps * cross
        diff = defect + eps ** 2 * j0
        rows.append(PerturbationRow(
            eps=float(eps),
            cost_diff=float(diff.mean()),
            diff_stderr=mc_stderr(diff),
            quadratic_term=float(eps ** 2 * j0.mean()),
            defect=float(defect.mean()),
            defect_stderr=mc_stderr(defect),
        ))
    return PerturbationReport(rows=rows, j0_value=float(j0.mean()), j0_stderr=mc_stderr(j0))


def controlled_map(state: AffineBsdeSolution, v: AffineProcess) -> np.ndarray:
    """Slot map (N+1, 2n+m, 2) on xi = (W, 1) of (Y_v, Z_v, v) =
    (a_Y + b_Y W, b_Y, a_v + b_v W), the exact state under the control v."""
    aY, bY = state.phi.node_parts()
    av, bv = v.node_parts()
    return np.stack((np.concatenate((bY, np.zeros_like(bY), bv), axis=-1),
                     np.concatenate((aY, bY, av), axis=-1)), axis=-1)


def random_affine_control(grid: TimeGrid, m: int, rng: np.random.Generator) -> AffineProcess:
    """Seeded smooth random control a(t) + b(t) W(t).

    Both profiles are random combinations of 1, t, sin(pi t / T) and
    cos(pi t / T); bounded and admissible by construction.
    """
    t = grid.nodes / grid.T
    basis = np.stack([np.ones_like(t), t, np.sin(np.pi * t), np.cos(np.pi * t)])
    a, b = ((rng.standard_normal((m, len(basis))) @ basis).T for _ in range(2))  # a, then b
    return AffineProcess(MatrixPath.sampled(a, grid), MatrixPath.sampled(b, grid))


# ---------------------------------------------------------------------------
# Uniform-convexity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Lower-bound probe for J0(0; v) >= delta * E int |v|^2.

    ``delta_hat`` is the smallest cost-to-energy ratio over the random
    controls, each an exact expectation; a negative one certifies that the
    homogeneous functional is not uniformly convex.
    """

    delta_hat: float
    certificate: bool
    ratios: list[float] = field(repr=False)


def convexity_probe(spec: ProblemSpec, trials: int = 16, seed: int = 42,
                    substeps: int = DEFAULT_SUBSTEPS) -> ProbeReport:
    """min_v J0(0; v) / E int |v|^2 over random affine controls, in expectation.

    Both are quadratic forms in xi = (W, 1), tabulated from the controls'
    node arrays and their exact states (:func:`controlled_map`).  Through
    E W = 0 and E W^2 = t a node's xi^T C xi has expectation C_WW t + C_11,
    so no path is drawn and the ratios carry no sampling error."""
    hspec = homogeneous(spec)
    grid, form = hspec.grid, cost_form(hspec)
    N, t = grid.steps, grid.nodes
    rng = np.random.Generator(philox(seed, 0xC0FFEE))
    controls = [random_affine_control(grid, hspec.m, rng) for _ in range(trials)]
    ratios = []
    for v, state in zip(controls, solve_controlled_state(hspec, controls, substeps)):
        boundary, run = form.tables(controlled_map(state, v))
        num = (boundary[0, 0] * t[form.at] + boundary[1, 1]
               + (run[:, 0, 0] @ t[:N] + run[:, 1, 1].sum()) * grid.dt)
        a, b = v.node_parts()
        den = (np.sum(a[:N] ** 2) + t[:N] @ np.sum(b[:N] ** 2, axis=-1)) * grid.dt
        ratios.append(float(num / den))
    delta_hat = min(ratios)
    return ProbeReport(delta_hat=delta_hat, certificate=delta_hat < 0.0, ratios=ratios)


# ---------------------------------------------------------------------------
# Forward branch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForwardValueReport:
    formula: float          # forward_value_formula
    mc: CostReport
    gap: float


def forward_value_formula(spec: ForwardProblemSpec, psol: ForwardRiccatiSolution,
                          adjoint: AffineBsdeSolution) -> float:
    """Optimal value of the forward problem from x0 by deterministic quadrature:

        V = <P(0) x0, x0> + 2 <eta(0), x0>
            + int_0^T E[<P sigma, sigma> + 2 <eta, b> + 2 <zeta, sigma>
                        - <Rhat^{-1} rhohat, rhohat>] dt,

    with (eta, zeta) the affine adjoint pair (eta(T) = gTilde; qTilde enters
    through its drift) and Rhat, rhohat the closed loop's weight and
    open-loop term (:func:`bslq.simulate.feedforward`).  The expectations
    are polynomials in t through E W = 0 and E W^2 = t, integrated with the
    trapezoid rule.  Without the nonhomogeneous data b, sigma, qTilde,
    rhoTilde and gTilde it is <P(0) x0, x0>.
    """
    t = spec.grid.nodes
    weight, open_loop = feedforward(spec, psol, adjoint)
    eta, zeta, sigma, b = (np.stack(p.node_parts()) for p in (
        adjoint.phi, adjoint.beta, spec.sigma, spec.b))

    def e_inner(x, y):  # E<x, y> for x = x_a + W x_b and y = y_a + W y_b
        return _dot(x[0], y[0]) + t * _dot(x[1], y[1])

    integrand = (e_inner(mv(psol.P, sigma), sigma) + 2.0 * e_inner(eta, b)
                 + 2.0 * e_inner(zeta, sigma)
                 - e_inner(mv(np.linalg.inv(weight), open_loop), open_loop))
    x0 = spec.x0
    return float(x0 @ psol.P[0] @ x0 + 2.0 * (eta[0, 0] @ x0)
                 + np.trapezoid(integrand, dx=spec.grid.dt))


def forward_value(spec: ForwardProblemSpec, psol: ForwardRiccatiSolution,
                  adjoint: AffineBsdeSolution, ens: PathEnsemble) -> ForwardValueReport:
    """Compare :func:`forward_value_formula` with the Monte-Carlo cost of the
    closed loop."""
    formula = forward_value_formula(spec, psol, adjoint)
    mc = evaluate_cost(spec, ens)
    return ForwardValueReport(formula=formula, mc=mc, gap=abs(formula - mc.estimate))


# ---------------------------------------------------------------------------
# A-priori bound smoke test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    constant: float
    ok: bool


def apriori_bound_check(spec: ProblemSpec, ensemble: PathEnsemble) -> BoundCheck:
    """Smoke test of the standard linear-BSDE energy estimate.

    sup_k E|Y(t_k)|^2 + E int |Z|^2 dt must be bounded by a single constant
    K = 10 exp(10 * coefficient_bound * T) times E|xi|^2 + E int |u|^2 dt +
    E int |f|^2 dt.  Only finiteness of some such constant is meaningful;
    the explicit K is a generous fixed choice shared by all scenarios.
    A field's E|.|^2 at node k is tr(L S_k L^T), L its rows of the outputs
    map and S_k the sample second moment of xi = (X, W, 1) at the node.
    """
    grid = spec.grid
    N, dt = grid.steps, grid.dt
    W = ensemble.brownian.W
    xi = np.ones((N + 1, ensemble.state.shape[-1] + 2, len(W)))  # (X, W, 1), paths last
    xi[:, :-2], xi[:, -2] = np.moveaxis(ensemble.state, 0, -1), W.T
    S = xi @ np.swapaxes(xi, -1, -2) / len(W)
    EY, EZ, Eu = (((L @ S) * L).sum(axis=(-2, -1)) for L in map(ensemble.rows, "YZu"))
    lhs = float(np.max(EY) + EZ[:N].sum() * dt)
    data = float(np.mean(_square_sums(spec.xi, W, slice(N, None)))
                 + Eu[:N].sum() * dt
                 + np.mean(_square_sums(spec.f, W, slice(N)) * dt))
    K = 10.0 * float(np.exp(10.0 * spec.coefficient_bound() * grid.T))
    rhs = K * data
    return BoundCheck(lhs=lhs, rhs=rhs, constant=K, ok=lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    threshold: float
    comparator: str  # "<=" or ">="
    passed: bool


@dataclass(frozen=True)
class VerificationResult:
    rows: list[CheckRow]
    passed: bool
    value_report: dict


def _row(name: str, value: float, threshold: float, comparator: str) -> CheckRow:
    ok = value <= threshold if comparator == "<=" else value >= threshold
    return CheckRow(name, float(value), float(threshold), comparator, bool(ok))


def _allowance(coarse: float, fine: float) -> float:
    """Discretization allowance of an estimate at N steps from its value at 2N
    on the same paths: twice the difference, floored at 1e-4."""
    return max(2.0 * abs(coarse - fine), 1e-4)


def _brownian_pair(spec, seed: int, paths: int):
    """The spec resampled at 2N steps, its Brownian ensemble, and that
    ensemble aggregated onto the N-step grid."""
    fine_spec = resample(spec, 2 * spec.grid.steps)
    fine_brownian = BrownianEnsemble.generate(seed, paths, fine_spec.grid)
    return fine_spec, fine_brownian, fine_brownian.coarsen(2)


def _result(rows: list[CheckRow], formula: float, mc: CostReport, c_dt: float,
            **extra) -> VerificationResult:
    return VerificationResult(rows, all(r.passed for r in rows), value_report=dict(
        value_formula=formula, value_mc=mc.estimate, value_mc_stderr=mc.stderr,
        value_c_dt=c_dt, **extra))


PERTURBATIONS = 3  # random affine controls in the perturbation rows


def verify_backward(spec: ProblemSpec, paths: int = 10000, seed: int = 42,
                    substeps: int = DEFAULT_SUBSTEPS, trials: int = 16,
                    eps_grid=(-1.0, -0.5, -0.1, 0.1, 0.5, 1.0)) -> VerificationResult:
    """Run the full verification table for a backward problem.

    Monte-Carlo tolerances are self-calibrated: every estimate is computed
    at the working step count and at twice that step count on the same
    (aggregated) Brownian paths, and the discretization allowance is twice
    the difference between the two, floored at 1e-4.  The convexity probe
    is exact in expectation and draws its controls independently of
    ``seed``, so the ``delta_hat`` row is the same at every seed.
    """
    for e in map(float, eps_grid):
        if not math.isfinite(e * e):  # e ** 2 would raise OverflowError
            need = "be finite" if not math.isfinite(e) else "have a finite square"
            raise ValueError(f"--eps-grid entries must {need}, got {e:g}")
    if not any(eps_grid):
        raise ValueError("--eps-grid needs a nonzero entry: eps = 0 perturbs nothing")
    fine_spec, fine_brownian, brownian = _brownian_pair(spec, seed, paths)

    synth = synthesize_optimal(spec, brownian, substeps)
    fine_synth = synthesize_optimal(fine_spec, fine_brownian, substeps)
    reduced, sigma, bsde, ens = synth.reduced, synth.sigma, synth.bsde, synth.ensemble

    rows: list[CheckRow] = []
    rows.append(_row("riccati_residual", sigma.equation_residual(reduced.base), 1e-6, "<="))
    rows.append(_row("sigma_psd_margin", sigma.psd_margin(), -1e-10, ">="))
    rows.append(_row("sigma_symmetry", sigma.symmetry_error(), 1e-10, "<="))
    rows.append(_row("sigma_inverse_identity", sigma.inverse_identity_error(), 1e-10, "<="))
    rows.append(_row("r_of_sigma_conditioning", sigma.conditioning, 1e-12, ">="))
    rows.append(_row("h_residual", reduced.h.residual(spec), 1e-6, "<="))
    rows.append(_row("bsde_residual", bsde.residual(), 1e-6, "<="))
    rows.append(_row("bsde_drift_form_gap", bsde.drift.cross_form_gap, 1e-10, "<="))

    stat = stationarity_residual(spec, ens)
    rows.append(_row("stationarity_sup", stat.sup, 1e-10, "<="))
    W_T, (aT, bT) = brownian.W[:, -1:], spec.xi.at_terminal()
    Y_T = _gain_affine(ens.rows("Y")[-1:], ens.state[:, -1:], W_T)[:, 0]
    rows.append(_row("terminal_hit", float(np.max(np.abs(Y_T - (aT + bT * W_T)))), 0.0, "<="))

    v_formula = value_formula(spec, reduced, sigma, bsde)
    mc = evaluate_cost(spec, ens)
    c_dt = _allowance(mc.estimate, evaluate_cost(fine_spec, fine_synth.ensemble).estimate)
    rows.append(_row("value_gap", abs(v_formula - mc.estimate),
                     3.0 * mc.stderr + c_dt, "<="))

    probe = convexity_probe(spec, trials=trials, substeps=substeps)
    rows.append(_row("delta_hat", probe.delta_hat, 0.0, ">="))

    rng = np.random.Generator(philox(seed, 0x9E37))
    max_defect, min_diff = 0.0, np.inf
    eps_max = max(eps_grid, key=abs)
    fine_grid = fine_spec.grid
    vs = [random_affine_control(spec.grid, spec.m, rng) for _ in range(PERTURBATIONS)]
    fine_vs = [AffineProcess(*(MatrixPath.sampled(p.tabulate(fine_grid.nodes), fine_grid)
                               for p in (v.a, v.b))) for v in vs]
    states = solve_controlled_state(homogeneous(spec), vs, substeps)
    fine_states = solve_controlled_state(homogeneous(fine_spec), fine_vs, substeps)
    for v, fine_v, state, fine_state in zip(vs, fine_vs, states, fine_states):
        rep = perturbation_identity(spec, ens, v, eps_grid, substeps, state)
        # One fine-resolution run at the largest eps calibrates the
        # discretization allowance for this perturbation (the defect bias
        # grows with |eps|, so this is conservative for the smaller ones).
        rep_fine = perturbation_identity(fine_spec, fine_synth.ensemble, fine_v,
                                         [eps_max], substeps, fine_state)
        ref = next(r for r in rep.rows if r.eps == eps_max)
        c_pert = _allowance(ref.defect, rep_fine.rows[0].defect)
        for r in rep.rows:
            tol = 3.0 * r.defect_stderr + c_pert
            max_defect = max(max_defect, abs(r.defect) - tol)
            min_diff = min(min_diff, r.cost_diff + tol)
    rows.append(_row("perturbation_defect_excess", max_defect, 0.0, "<="))
    rows.append(_row("optimality_dominance_margin", float(min_diff), 0.0, ">="))

    bound = apriori_bound_check(spec, ens)
    rows.append(_row("apriori_bound_ratio", bound.lhs, bound.rhs + 1e-12, "<="))
    return _result(rows, v_formula, mc, c_dt, delta_hat=probe.delta_hat,
                   stationarity_sup=stat.sup)


def verify_forward(spec: ForwardProblemSpec, paths: int = 10000, seed: int = 42,
                   substeps: int = DEFAULT_SUBSTEPS) -> VerificationResult:
    """Verification table for a forward problem."""
    fine_spec, fine_brownian, brownian = _brownian_pair(spec, seed, paths)

    def run(s, bw):
        psol = solve_forward_riccati(s, substeps)
        adj = solve_eta_zeta(s, psol)
        return psol, adj, simulate_forward_closed_loop(s, psol, adj, bw)

    psol, adj, ens = run(spec, brownian)

    rows: list[CheckRow] = []
    rows.append(_row("p_terminal_anchor", float(np.max(np.abs(psol.P[-1] - spec.cG))), 0.0, "<="))
    rows.append(_row("weight_min_eig", float(np.min(psol.min_eig_weight)), 0.0, ">="))
    if uniform_convexity_conditions(spec):
        rows.append(_row("p_psd_margin", psol.psd_margin(), -1e-10, ">="))
    rows.append(_row("adjoint_residual", adj.residual(), 1e-6, "<="))

    rep = forward_value(spec, psol, adj, ens)
    fine_mc = forward_value(fine_spec, *run(fine_spec, fine_brownian)).mc
    c_dt = _allowance(rep.mc.estimate, fine_mc.estimate)
    rows.append(_row("forward_value_gap", rep.gap, 3.0 * rep.mc.stderr + c_dt, "<="))
    return _result(rows, rep.formula, rep.mc, c_dt)


def verify(spec, **kw) -> VerificationResult:
    """The verification table of a backward or a forward problem."""
    if isinstance(spec, ForwardProblemSpec):
        return verify_forward(spec, **kw)
    return verify_backward(spec, **kw)
