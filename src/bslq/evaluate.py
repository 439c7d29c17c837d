"""Cost functionals, the closed-form optimal value, and optimality checks.

The Monte-Carlo side evaluates the quadratic cost on simulated trajectories
with left-point quadrature of the running integrand and exact evaluation of
the t = 0 terms.  The formula side evaluates the closed-form optimal value

    V(xi) = E[ -<H(T) xi, xi> + 2 <phi(0), g> - <Sigma(0) g, g> ]
            + int_0^T ( closed-form expectation of the running integrand ) dt

entirely by deterministic quadrature: within the affine data class every
expectation appearing in the integrand is a polynomial in t through
E[W(t)] = 0 and E[W(t)^2] = t, so the formula side carries no sampling noise
and the Monte-Carlo side owns the whole error budget of any comparison.

The optimality checks implement three independent characterisations:

* stationarity: S2 Y + R21 Z - B^T X + R22 u + rho2 = 0 pointwise along the
  adjoint state X, an algebraic identity for synthesized optima;
* the quadratic expansion J(xi; u* + eps v) - J(xi; u*) = eps^2 J0(0; v)
  under common random numbers, for exact affine perturbations v;
* a uniform-convexity probe estimating min_v J0(0; v) / E int |v|^2 over
  random affine controls, with a certificate when it is credibly negative.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox

from .bsde import (AffineBsdeSolution, assemble_drift, solve_affine_bsde,
                   solve_controlled_state, solve_eta_zeta)
from .grid import AffineProcess, MatrixPath, TimeGrid
from .ode import DEFAULT_SUBSTEPS
from .problem import ForwardProblemSpec, ProblemSpec, homogeneous, resample
from .reduction import ReducedProblem, reduce_problem
from .riccati import (ForwardRiccatiSolution, RiccatiSolution, solve_forward_riccati,
                      solve_sigma, uniform_convexity_conditions)
from .simulate import (BrownianEnsemble, ForwardEnsemble, PathEnsemble, sample_affine_control,
                       simulate_forward_closed_loop, synthesize_optimal)


# ---------------------------------------------------------------------------
# Monte-Carlo cost evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
    """Monte-Carlo cost estimate with its sampling error and provenance."""

    estimate: float
    stderr: float
    paths: int
    steps: int
    seed: int
    initial_term: float
    running_term: float


def path_costs(spec: ProblemSpec, Y: np.ndarray, Z: np.ndarray, u: np.ndarray,
               W: np.ndarray) -> np.ndarray:
    """Per-path cost of (Y, Z, u) trajectories, shape (paths,).

    Left-point quadrature of the running integrand; the initial terms are
    evaluated exactly at t = 0.
    """
    parts = path_cost_parts(spec, Y, Z, u, W)
    return parts[0] + parts[1]


def path_cost_parts(spec: ProblemSpec, Y, Z, u, W) -> tuple[np.ndarray, np.ndarray]:
    """(initial, running) per-path cost contributions."""
    N = spec.grid.steps
    dt = spec.grid.dt
    Yk, Zk, uk = Y[:, :N, :], Z[:, :N, :], u[:, :N, :]
    Qv = spec.Q.node_values()[:N]
    S1v = spec.S1.node_values()[:N]
    S2v = spec.S2.node_values()[:N]
    R11v = spec.R11.node_values()[:N]
    R12v = spec.R12.node_values()[:N]
    R21v = spec.R21.node_values()[:N]
    R22v = spec.R22.node_values()[:N]

    def bil(Mk, x, y):
        """<M x, y> along paths and nodes; zero weights are skipped."""
        if not np.any(Mk):
            return 0.0
        return np.einsum("kij,pkj,pki->pk", Mk, x, y)

    integrand = (bil(Qv, Yk, Yk) + bil(R11v, Zk, Zk) + bil(R22v, uk, uk)
                 + 2.0 * bil(S1v, Yk, Zk) + 2.0 * bil(S2v, Yk, uk)
                 + bil(R12v, uk, Zk) + bil(R21v, Zk, uk))

    def lin(proc, x):
        if proc.a.is_zero() and proc.b.is_zero():
            return 0.0
        return np.einsum("pki,pki->pk", proc.sample(W)[:, :N, :], x)

    integrand = integrand + 2.0 * (lin(spec.q, Yk) + lin(spec.rho1, Zk)
                                   + lin(spec.rho2, uk))
    running = np.asarray(integrand * dt)
    if running.ndim < 2:
        running = np.zeros(Y.shape[0])
    else:
        running = running.sum(axis=1)
    Y0 = Y[:, 0, :]
    initial = 2.0 * (Y0 @ spec.g)
    if np.any(spec.G):
        initial = initial + np.einsum("pi,ij,pj->p", Y0, spec.G, Y0)
    return initial, running


def evaluate_cost(spec: ProblemSpec, traj, workers: int = 1) -> CostReport:
    """Cost report for an object carrying (Y, Z, u) and a Brownian ensemble.

    Path chunks may be evaluated on several workers; the per-path cost array
    is reassembled in path order and reduced with a single fixed summation,
    so the result is bitwise independent of the worker count.
    """
    W = traj.brownian.W
    P = W.shape[0]
    if workers > 1 and P > 1:
        size = -(-P // workers)
        bounds = [(lo, min(lo + size, P)) for lo in range(0, P, size)]
        initial = np.empty(P)
        running = np.empty(P)

        def run(lo, hi):
            i, r = path_cost_parts(spec, traj.Y[lo:hi], traj.Z[lo:hi],
                                   traj.u[lo:hi], W[lo:hi])
            initial[lo:hi] = i
            running[lo:hi] = r

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda be: run(*be), bounds))
    else:
        initial, running = path_cost_parts(spec, traj.Y, traj.Z, traj.u, W)
    costs = initial + running
    stderr = float(costs.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0
    return CostReport(
        estimate=float(np.sum(costs) / P),
        stderr=stderr,
        paths=P,
        steps=spec.grid.steps,
        seed=traj.brownian.seed,
        initial_term=float(np.sum(initial) / P),
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
    S1 = base.S1.node_values()
    S2 = base.S2.node_values()
    R11 = base.R11.node_values()
    R22 = base.R22.node_values()
    Sg = sigma.Sigma
    RSinv = sigma.RofSigmaInv
    R22inv = np.linalg.inv(R22)
    S1t = np.swapaxes(S1, -1, -2)
    S2t = np.swapaxes(S2, -1, -2)

    aphi, bphi = bsde.phi.node_parts()
    r1a, r1b = base.rho1.node_parts()
    r2a, r2b = base.rho2.node_parts()
    qa, qb = base.q.node_parts()

    def mv(mat, vec):
        return np.einsum("kij,kj->ki", mat, vec)

    def dot(x, y):
        return np.einsum("ki,ki->k", x, y)

    def e_inner(Mu0, Mu1, v0, v1):
        return dot(Mu0, v0) + t * dot(Mu1, v1)

    rs_sg = RSinv @ Sg
    term1 = -e_inner(mv(rs_sg, r1a), mv(rs_sg, r1b), r1a, r1b)
    term2 = -e_inner(mv(R22inv, r2a), mv(R22inv, r2b), r2a, r2b)
    term3 = 2.0 * dot(mv(RSinv, bphi), r1a)
    term4 = dot(mv(R11 @ RSinv, bphi), bphi)
    w0 = mv(S1t @ RSinv, bphi) - mv(S1t @ rs_sg, r1a) - mv(S2t @ R22inv, r2a) + qa
    w1 = -mv(S1t @ rs_sg, r1b) - mv(S2t @ R22inv, r2b) + qb
    term5 = 2.0 * e_inner(w0, w1, aphi, bphi)
    Mq = S1t @ rs_sg @ S1 + S2t @ R22inv @ S2
    term6 = -e_inner(mv(Mq, aphi), mv(Mq, bphi), aphi, bphi)

    integrand = term1 + term2 + term3 + term4 + term5 + term6
    running = float(np.trapezoid(integrand, dx=base.grid.dt))
    g = base.g
    head = 2.0 * float(aphi[0] @ g) - float(g @ sigma.Sigma[0] @ g)
    return head + running - reduced.constant_shift


def solve_value(spec: ProblemSpec, substeps: int = DEFAULT_SUBSTEPS):
    """Convenience: reduce, solve, and return (value, reduced, sigma, bsde)."""
    reduced = reduce_problem(spec, substeps)
    sigma = solve_sigma(reduced, substeps)
    bsde = solve_affine_bsde(assemble_drift(reduced, sigma), spec.xi, substeps)
    return value_formula(spec, reduced, sigma, bsde), reduced, sigma, bsde


# ---------------------------------------------------------------------------
# Stationarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationarityReport:
    sup: float
    rms: float


def stationarity_residual(spec: ProblemSpec, ensemble) -> StationarityReport:
    """Pointwise residual of the first-order condition over all paths/nodes.

    Evaluated with the original problem's coefficients against the adjoint
    state carried by the ensemble; for synthesized optima this must vanish
    to rounding error at every node, independently of the time step.
    """
    S2 = spec.S2.node_values()
    R21 = spec.R21.node_values()
    R22 = spec.R22.node_values()
    B = spec.B.node_values()
    rho2 = spec.rho2.sample(ensemble.brownian.W)

    def mv(mat, vec):
        return np.einsum("kij,pkj->pki", mat, vec)

    res = (mv(S2, ensemble.Y) + mv(R21, ensemble.Z)
           - mv(np.swapaxes(B, -1, -2), ensemble.X)
           + mv(R22, ensemble.u) + rho2)
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
    All three costs are evaluated on the same Brownian ensemble, so the
    defect carries only quadrature bias and the (small) common-random-number
    noise of the vanishing cross term.  ``state`` passes (Y_v, Z_v) already
    solved in a batched :func:`bslq.bsde.solve_controlled_state` call.
    """
    hspec = homogeneous(spec)
    W = ensemble.brownian.W
    P = W.shape[0]
    traj_v = sample_affine_control(hspec, v, ensemble.brownian, substeps, state)
    j0_costs = path_costs(hspec, traj_v.Y, traj_v.Z, traj_v.u, W)
    base_costs = path_costs(spec, ensemble.Y, ensemble.Z, ensemble.u, W)
    rows = []
    for eps in eps_grid:
        pert_costs = path_costs(
            spec,
            ensemble.Y + eps * traj_v.Y,
            ensemble.Z + eps * traj_v.Z,
            ensemble.u + eps * traj_v.u,
            W,
        )
        diff = pert_costs - base_costs
        defect = diff - eps ** 2 * j0_costs
        rows.append(PerturbationRow(
            eps=float(eps),
            cost_diff=float(diff.mean()),
            diff_stderr=float(diff.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0,
            quadratic_term=float(eps ** 2 * j0_costs.mean()),
            defect=float(defect.mean()),
            defect_stderr=float(defect.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0,
        ))
    return PerturbationReport(
        rows=rows,
        j0_value=float(j0_costs.mean()),
        j0_stderr=float(j0_costs.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0,
    )


def random_affine_control(grid: TimeGrid, m: int, rng: np.random.Generator,
                          stochastic: bool = True) -> AffineProcess:
    """Seeded smooth random control a(t) + b(t) W(t).

    Both profiles are random combinations of 1, t, sin(pi t / T) and
    cos(pi t / T); bounded and admissible by construction.
    """
    t = grid.nodes / grid.T
    basis = np.stack([np.ones_like(t), t, np.sin(np.pi * t), np.cos(np.pi * t)])

    def profile():
        coef = rng.standard_normal((m, basis.shape[0]))
        return (coef @ basis).T  # (N+1, m)

    a = profile()
    b = profile() if stochastic else np.zeros_like(a)
    return AffineProcess(MatrixPath.sampled(a, grid), MatrixPath.sampled(b, grid))


# ---------------------------------------------------------------------------
# Uniform-convexity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeTrial:
    ratio: float
    stderr: float


@dataclass(frozen=True)
class ProbeReport:
    """Lower-bound probe for J0(0; v) >= delta * E int |v|^2.

    ``delta_hat`` is the smallest cost-to-energy ratio over the sampled
    controls; a value below -3 stderr is a numerically credible certificate
    that the homogeneous functional is not uniformly convex.
    """

    delta_hat: float
    stderr: float
    certificate: bool
    trials: list[ProbeTrial] = field(repr=False)


def convexity_probe(spec: ProblemSpec, trials: int = 16, seed: int = 42,
                    paths: int = 2000, substeps: int = DEFAULT_SUBSTEPS,
                    workers: int = 1) -> ProbeReport:
    """Estimate min_v J0(0; v) / E int |v|^2 over random affine controls."""
    hspec = homogeneous(spec)
    grid = hspec.grid
    brownian = BrownianEnsemble.generate(seed, paths, grid, workers)
    rng = np.random.Generator(Philox(key=np.array([seed, 0xC0FFEE], dtype=np.uint64)))
    dt = grid.dt
    N = grid.steps
    controls = [random_affine_control(grid, hspec.m, rng) for _ in range(trials)]
    states = solve_controlled_state(hspec, controls, substeps)
    out: list[ProbeTrial] = []
    for v, state in zip(controls, states):
        traj = sample_affine_control(hspec, v, brownian, substeps, state)
        num = path_costs(hspec, traj.Y, traj.Z, traj.u, brownian.W)
        den = np.einsum("pki,pki->p", traj.u[:, :N, :], traj.u[:, :N, :]) * dt
        nbar, dbar = num.mean(), den.mean()
        ratio = nbar / dbar
        P = num.shape[0]
        if P > 1:
            cov = np.cov(num, den, ddof=1)
            var = (cov[0, 0] / dbar ** 2 + nbar ** 2 * cov[1, 1] / dbar ** 4
                   - 2.0 * nbar * cov[0, 1] / dbar ** 3)
            stderr = float(np.sqrt(max(var, 0.0) / P))
        else:
            stderr = 0.0
        out.append(ProbeTrial(float(ratio), stderr))
    worst = min(out, key=lambda tr: tr.ratio)
    return ProbeReport(
        delta_hat=worst.ratio,
        stderr=worst.stderr,
        certificate=worst.ratio < -3.0 * worst.stderr,
        trials=out,
    )


# ---------------------------------------------------------------------------
# Forward branch
# ---------------------------------------------------------------------------


def forward_path_costs(spec: ForwardProblemSpec, X: np.ndarray, v: np.ndarray,
                       W: np.ndarray) -> np.ndarray:
    """Per-path forward cost: terminal quadratic plus left-point running sum."""
    N = spec.grid.steps
    dt = spec.grid.dt
    Xk, vk = X[:, :N, :], v[:, :N, :]
    Qv = spec.cQ.node_values()[:N]
    Sv = spec.cS.node_values()[:N]
    Rv = spec.cR.node_values()[:N]
    qt = spec.qTilde.sample(W)[:, :N, :]
    rt = spec.rhoTilde.sample(W)[:, :N, :]
    integrand = (np.einsum("pki,kij,pkj->pk", Xk, Qv, Xk)
                 + 2.0 * np.einsum("kij,pkj,pki->pk", Sv, Xk, vk)
                 + np.einsum("pki,kij,pkj->pk", vk, Rv, vk)
                 + 2.0 * np.einsum("pki,pki->pk", qt, Xk)
                 + 2.0 * np.einsum("pki,pki->pk", rt, vk))
    XT = X[:, N, :]
    terminal = np.einsum("pi,ij,pj->p", XT, spec.cG, XT) + 2.0 * (XT @ spec.gTilde)
    return terminal + integrand.sum(axis=1) * dt


def evaluate_forward_cost(spec: ForwardProblemSpec, ens: ForwardEnsemble) -> CostReport:
    costs = forward_path_costs(spec, ens.X, ens.v, ens.brownian.W)
    P = costs.shape[0]
    return CostReport(
        estimate=float(np.sum(costs) / P),
        stderr=float(costs.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0,
        paths=P,
        steps=spec.grid.steps,
        seed=ens.brownian.seed,
        initial_term=0.0,
        running_term=float(np.sum(costs) / P),
    )


@dataclass(frozen=True)
class ForwardValueReport:
    formula: float          # <P(0) x, x>
    mc: CostReport
    gap: float


def forward_value(spec: ForwardProblemSpec, psol: ForwardRiccatiSolution,
                  ens: ForwardEnsemble) -> ForwardValueReport:
    """Compare <P(0) x, x> with the Monte-Carlo cost of the closed loop.

    The quadratic formula is the value function when the nonhomogeneous
    data vanish; for general data the report still records the gap.
    """
    formula = float(spec.x0 @ psol.P[0] @ spec.x0)
    mc = evaluate_forward_cost(spec, ens)
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


def apriori_bound_check(spec: ProblemSpec, ensemble) -> BoundCheck:
    """Smoke test of the standard linear-BSDE energy estimate.

    sup_k E|Y(t_k)|^2 + E int |Z|^2 dt must be bounded by a single constant
    K = 10 exp(10 * coefficient_bound * T) times E|xi|^2 + E int |u|^2 dt +
    E int |f|^2 dt.  Only finiteness of some such constant is meaningful;
    the explicit K is a generous fixed choice shared by all scenarios.
    """
    grid = spec.grid
    N, dt = grid.steps, grid.dt
    W = ensemble.brownian.W
    lhs = float(np.max(np.mean(np.einsum("pki,pki->pk", ensemble.Y, ensemble.Y), axis=0))
                + np.mean(np.einsum("pki,pki->pk", ensemble.Z[:, :N, :],
                                    ensemble.Z[:, :N, :]).sum(axis=1) * dt))
    xi = spec.xi.sample(W)[:, N, :]
    f = spec.f.sample(W)[:, :N, :]
    data = float(np.mean(np.einsum("pi,pi->p", xi, xi))
                 + np.mean(np.einsum("pki,pki->pk", ensemble.u[:, :N, :],
                                     ensemble.u[:, :N, :]).sum(axis=1) * dt)
                 + np.mean(np.einsum("pki,pki->pk", f, f).sum(axis=1) * dt))
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


def verify_backward(spec: ProblemSpec, paths: int = 10000, seed: int = 42,
                    substeps: int = DEFAULT_SUBSTEPS, trials: int = 16,
                    eps_grid=(-1.0, -0.5, -0.1, 0.1, 0.5, 1.0),
                    perturbations: int = 3, workers: int = 1) -> VerificationResult:
    """Run the full verification table for a backward problem.

    Monte-Carlo tolerances are self-calibrated: every estimate is computed
    at the working step count and at twice that step count on the same
    (aggregated) Brownian paths, and the discretization allowance is twice
    the difference between the two, floored at 1e-4.
    """
    fine_spec = resample(spec, 2 * spec.grid.steps)
    fine_brownian = BrownianEnsemble.generate(seed, paths, fine_spec.grid, workers)
    brownian = fine_brownian.coarsen(2)

    synth = synthesize_optimal(spec, brownian, substeps)
    fine_synth = synthesize_optimal(fine_spec, fine_brownian, substeps)
    reduced, sigma, bsde, ens = synth.reduced, synth.sigma, synth.bsde, synth.ensemble

    rows: list[CheckRow] = []
    rows.append(_row("riccati_residual", sigma.equation_residual(reduced.base),
                     1e-6, "<="))
    rows.append(_row("sigma_psd_margin", sigma.psd_margin(), -1e-10, ">="))
    rows.append(_row("sigma_symmetry", sigma.symmetry_error(), 1e-10, "<="))
    rows.append(_row("sigma_inverse_identity", sigma.inverse_identity_error(),
                     1e-10, "<="))
    rows.append(_row("r_of_sigma_conditioning", sigma.conditioning, 1e-12, ">="))
    rows.append(_row("h_residual", reduced.h.residual(spec), 1e-6, "<="))
    rows.append(_row("bsde_residual", bsde.residual(), 1e-6, "<="))
    rows.append(_row("bsde_drift_form_gap", bsde.drift.cross_form_gap, 1e-10, "<="))

    stat = stationarity_residual(spec, ens)
    rows.append(_row("stationarity_sup", stat.sup, 1e-10, "<="))
    xi_T = spec.xi.sample(brownian.W)[:, -1, :]
    rows.append(_row("terminal_hit", float(np.max(np.abs(ens.Y[:, -1, :] - xi_T))),
                     0.0, "<="))

    v_formula = value_formula(spec, reduced, sigma, bsde)
    mc = evaluate_cost(spec, ens, workers)
    mc_fine = evaluate_cost(fine_spec, fine_synth.ensemble, workers)
    c_dt = max(2.0 * abs(mc.estimate - mc_fine.estimate), 1e-4)
    rows.append(_row("value_gap", abs(v_formula - mc.estimate),
                     3.0 * mc.stderr + c_dt, "<="))

    probe = convexity_probe(spec, trials=trials, seed=seed + 1,
                            paths=min(paths, 2000), substeps=substeps,
                            workers=workers)
    rows.append(_row("delta_hat", probe.delta_hat, -3.0 * probe.stderr, ">="))

    rng = np.random.Generator(Philox(key=np.array([seed, 0x9E37], dtype=np.uint64)))
    max_defect = 0.0
    min_diff = np.inf
    eps_max = max(eps_grid, key=abs)
    fine_grid = fine_spec.grid
    vs = [random_affine_control(spec.grid, spec.m, rng) for _ in range(perturbations)]
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
        c_pert = max(2.0 * abs(ref.defect - rep_fine.rows[0].defect), 1e-4)
        for r in rep.rows:
            tol = 3.0 * r.defect_stderr + c_pert
            max_defect = max(max_defect, abs(r.defect) - tol)
            min_diff = min(min_diff, r.cost_diff + tol)
    rows.append(_row("perturbation_defect_excess", max_defect, 0.0, "<="))
    rows.append(_row("optimality_dominance_margin", float(min_diff), 0.0, ">="))

    bound = apriori_bound_check(spec, ens)
    rows.append(_row("apriori_bound_ratio", bound.lhs,
                     bound.rhs + 1e-12, "<="))

    passed = all(r.passed for r in rows)
    return VerificationResult(rows, passed, value_report={
        "value_formula": v_formula,
        "value_mc": mc.estimate,
        "value_mc_stderr": mc.stderr,
        "value_c_dt": c_dt,
        "delta_hat": probe.delta_hat,
        "stationarity_sup": stat.sup,
    })


def verify_forward(spec: ForwardProblemSpec, paths: int = 10000, seed: int = 42,
                   substeps: int = DEFAULT_SUBSTEPS,
                   workers: int = 1) -> VerificationResult:
    """Verification table for a forward problem."""
    fine_spec = resample(spec, 2 * spec.grid.steps)
    fine_brownian = BrownianEnsemble.generate(seed, paths, fine_spec.grid, workers)
    brownian = fine_brownian.coarsen(2)

    def run(s, bw):
        psol = solve_forward_riccati(s, substeps)
        adj = solve_eta_zeta(s, psol, substeps)
        ens = simulate_forward_closed_loop(s, psol, adj, bw)
        return psol, adj, ens

    psol, adj, ens = run(spec, brownian)
    psol_f, _, ens_f = run(fine_spec, fine_brownian)

    rows: list[CheckRow] = []
    rows.append(_row("p_terminal_anchor",
                     float(np.max(np.abs(psol.P[-1] - spec.cG))), 0.0, "<="))
    rows.append(_row("weight_min_eig", float(np.min(psol.min_eig_weight)),
                     0.0, ">="))
    if uniform_convexity_conditions(spec):
        rows.append(_row("p_psd_margin", psol.psd_margin(), -1e-10, ">="))
    rows.append(_row("adjoint_residual", adj.residual(), 1e-6, "<="))

    rep = forward_value(spec, psol, ens)
    rep_fine = forward_value(fine_spec, psol_f, ens_f)
    c_dt = max(2.0 * abs(rep.mc.estimate - rep_fine.mc.estimate), 1e-4)
    rows.append(_row("forward_value_gap", rep.gap, 3.0 * rep.mc.stderr + c_dt, "<="))

    passed = all(r.passed for r in rows)
    return VerificationResult(rows, passed, value_report={
        "value_formula": rep.formula,
        "value_mc": rep.mc.estimate,
        "value_mc_stderr": rep.mc.stderr,
        "value_c_dt": c_dt,
    })


def verify(spec, **kw) -> VerificationResult:
    if isinstance(spec, ForwardProblemSpec):
        allowed = {"paths", "seed", "substeps", "workers"}
        return verify_forward(spec, **{k: v for k, v in kw.items() if k in allowed})
    return verify_backward(spec, **kw)
