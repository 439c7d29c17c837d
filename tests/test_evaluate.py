"""Cost evaluation, value formula, and the optimality check battery."""

import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from reference import apriori_by_fields, form_parts, path_costs, sample_affine_control

import bslq
from bslq.errors import (IntegrationError, PositivityError, ReductionError,
                         SimulationError, SingularityError)
from bslq.evaluate import (CostForm, _quad_sums, _square_sums, controlled_map, cost_form,
                           mc_stderr)
from bslq.grid import AffineProcess, MatrixPath, TimeGrid, mv


@pytest.fixture(scope="module")
def synth_cache(brownian_cache):
    cache = {}

    def get(name, seed=42, paths=2000, steps=200):
        key = (name, seed, paths, steps)
        if key not in cache:
            spec = bslq.builtin_scenario(name, steps=steps)
            bw = brownian_cache(seed, paths, steps)
            cache[key] = (spec, bslq.synthesize_optimal(spec, bw))
        return cache[key]

    return get


# -- Monte-Carlo cost ----------------------------------------------------------


def test_cost_zero_problem(synth_cache):
    spec, synth = synth_cache("S1")
    rep = bslq.evaluate_cost(spec, synth.ensemble)
    assert rep.estimate == 0.0
    assert rep.stderr == 0.0


def test_cost_s2_exact(synth_cache):
    spec, synth = synth_cache("S2")
    rep = bslq.evaluate_cost(spec, synth.ensemble)
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)
    assert rep.initial_term == pytest.approx(0.0, abs=1e-12)
    assert rep.running_term == pytest.approx(1.0, abs=1e-12)


# -- closed-form value ----------------------------------------------------------


def test_value_formula_closed_forms():
    assert bslq.solve_value(bslq.builtin_scenario("S1"))[0] == 0.0
    assert bslq.solve_value(bslq.builtin_scenario("S2"))[0] == pytest.approx(1.0, abs=1e-12)
    assert bslq.solve_value(bslq.builtin_scenario("S2", c=2.0))[0] == pytest.approx(3.0, abs=1e-12)
    # int_0^T R11 R(Sigma)^{-1} beta^2 dt with trapezoid quadrature error
    assert bslq.solve_value(bslq.builtin_scenario("S4"))[0] == pytest.approx(np.log(2.0), abs=5e-6)
    assert bslq.solve_value(bslq.builtin_scenario("S5"))[0] == pytest.approx(-np.log(2.0), abs=5e-6)


def test_value_agreement_with_mc(synth_cache):
    for name, c_dt in (("S4", 0.005), ("SX", 0.005)):
        spec, synth = synth_cache(name, paths=10000)
        formula = bslq.value_formula(spec, synth.reduced, synth.sigma, synth.bsde)
        mc = bslq.evaluate_cost(spec, synth.ensemble)
        assert abs(formula - mc.estimate) <= 3.0 * mc.stderr + c_dt


# -- stationarity ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["S2", "S4", "S5", "SX", "SH"])
def test_stationarity_of_synthesized_optimum(name, synth_cache):
    spec, synth = synth_cache(name, paths=500)
    rep = bslq.stationarity_residual(spec, synth.ensemble)
    assert rep.sup <= 1e-10
    assert rep.rms <= rep.sup + 1e-15


def test_stationarity_linear_in_control(synth_cache):
    spec, synth = synth_cache("S2", paths=200)
    ens = synth.ensemble
    M = ens.M.copy()
    M[:, -spec.m:, -1] += 0.1  # the constant column of the u rows
    perturbed = bslq.PathEnsemble(ens.brownian, ens.state, M, ens.fields, ens.slot_map)
    rep = bslq.stationarity_residual(spec, perturbed)
    assert rep.sup == pytest.approx(0.1, abs=1e-12)
    assert rep.rms == pytest.approx(0.1, abs=1e-12)


def test_stationarity_general_matrix_case(spec_2d, brownian_cache):
    bw = brownian_cache(42, 500, spec_2d.grid.steps)
    synth = bslq.synthesize_optimal(spec_2d, bw)
    rep = bslq.stationarity_residual(spec_2d, synth.ensemble)
    assert rep.sup <= 1e-10


# -- perturbation expansion -----------------------------------------------------


def test_perturbation_s1_exact(synth_cache):
    spec, synth = synth_cache("S1", paths=200)
    v = AffineProcess.of_constants([1.0], [0.0], spec.grid)
    rep = bslq.perturbation_identity(spec, synth.ensemble, v, [0.5])
    row = rep.rows[0]
    # J(eps v) = eps^2 int v^2 = 0.25, exactly, on the zero problem
    assert row.cost_diff == pytest.approx(0.25, abs=1e-12)
    assert row.defect == pytest.approx(0.0, abs=1e-12)
    assert rep.j0_value == pytest.approx(1.0, abs=1e-12)


def test_perturbation_zero_eps_exact(synth_cache):
    spec, synth = synth_cache("S4", paths=200)
    rng = np.random.Generator(np.random.Philox(key=9))
    v = bslq.random_affine_control(spec.grid, 1, rng)
    rep = bslq.perturbation_identity(spec, synth.ensemble, v, [0.0])
    assert rep.rows[0].cost_diff == 0.0
    assert rep.rows[0].defect == 0.0


def test_perturbation_sine_profile(synth_cache):
    spec, synth = synth_cache("S4", paths=10000)
    prof = np.sin(np.pi * spec.grid.nodes)[:, None]
    v = AffineProcess(MatrixPath.sampled(prof, spec.grid),
                      MatrixPath.zeros((1,), spec.grid))
    rep = bslq.perturbation_identity(spec, synth.ensemble, v,
                                     [-1.0, -0.1, 0.1, 1.0])
    for row in rep.rows:
        tol = 3.0 * row.defect_stderr + 0.01
        assert abs(row.defect) <= tol
        assert row.cost_diff >= -tol


def test_perturbation_even_in_eps(synth_cache):
    # No linear term at the optimum: the difference is even in eps up to
    # the Monte-Carlo/discretization tolerance.
    spec, synth = synth_cache("S4", paths=10000)
    rng = np.random.Generator(np.random.Philox(key=21))
    v = bslq.random_affine_control(spec.grid, 1, rng)
    rep = bslq.perturbation_identity(spec, synth.ensemble, v, [-0.5, 0.5])
    minus, plus = rep.rows
    tol = 3.0 * (minus.defect_stderr + plus.defect_stderr) + 0.02
    assert abs(plus.cost_diff - minus.cost_diff) <= tol


# -- cost kernel against the re-costing references ------------------------------


def reference_path_costs(spec, Y, Z, u, W):
    """Backward cost with the linear data sampled on the paths, block by block."""
    N = spec.grid.steps
    Yk, Zk, uk = Y[:, :N], Z[:, :N], u[:, :N]

    def bil(path, x, y):
        return np.einsum("kij,pkj,pki->pk", path.node_values()[:N], x, y)

    def lin(proc, x):
        return np.einsum("pki,pki->pk", proc.sample(W)[:, :N], x)

    integrand = (bil(spec.Q, Yk, Yk) + bil(spec.R11, Zk, Zk) + bil(spec.R22, uk, uk)
                 + 2.0 * bil(spec.S1, Yk, Zk) + 2.0 * bil(spec.S2, Yk, uk)
                 + bil(spec.R12, uk, Zk) + bil(spec.R21, Zk, uk)
                 + 2.0 * (lin(spec.q, Yk) + lin(spec.rho1, Zk) + lin(spec.rho2, uk)))
    Y0 = Y[:, 0]
    return (np.einsum("pi,ij,pj->p", Y0, spec.G, Y0) + 2.0 * (Y0 @ spec.g)
            + integrand.sum(axis=1) * spec.grid.dt)


def reference_forward_costs(spec, X, v, W):
    """Forward cost: terminal quadratic plus the left-point running sum."""
    N = spec.grid.steps
    Xk, vk = X[:, :N], v[:, :N]
    Qv, Sv, Rv = (p.node_values()[:N] for p in (spec.cQ, spec.cS, spec.cR))
    qt = spec.qTilde.sample(W)[:, :N]
    rt = spec.rhoTilde.sample(W)[:, :N]
    integrand = (np.einsum("pki,kij,pkj->pk", Xk, Qv, Xk)
                 + 2.0 * np.einsum("kij,pkj,pki->pk", Sv, Xk, vk)
                 + np.einsum("pki,kij,pkj->pk", vk, Rv, vk)
                 + 2.0 * np.einsum("pki,pki->pk", qt, Xk)
                 + 2.0 * np.einsum("pki,pki->pk", rt, vk))
    XT = X[:, N]
    terminal = np.einsum("pi,ij,pj->p", XT, spec.cG, XT) + 2.0 * (XT @ spec.gTilde)
    return terminal + integrand.sum(axis=1) * spec.grid.dt


def optimum(name, spec_2d, brownian_cache, paths=400):
    spec = spec_2d if name == "2x2" else bslq.builtin_scenario(name, steps=50)
    return spec, bslq.synthesize_optimal(spec, brownian_cache(7, paths, spec.grid.steps))


@pytest.mark.parametrize("name", ["S4", "SX", "SH", "2x2"])
def test_perturbation_polynomial_matches_recosting(name, spec_2d, brownian_cache):
    # The rows are read off the exact polynomial 2 eps C + eps^2 J0; the
    # reference re-costs every perturbed trajectory.
    spec, synth = optimum(name, spec_2d, brownian_cache)
    ens = synth.ensemble
    W = ens.brownian.W
    v = bslq.random_affine_control(spec.grid, spec.m, np.random.default_rng(5))
    eps_grid = (-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0)
    rep = bslq.perturbation_identity(spec, ens, v, eps_grid)
    traj = sample_affine_control(bslq.homogeneous(spec), v, ens.brownian)
    base = path_costs(spec, ens["Y"], ens["Z"], ens["u"], W)
    j0 = path_costs(bslq.homogeneous(spec), traj.Y, traj.Z, traj.u, W)
    tol = 1e-12 * max(1.0, np.max(np.abs(base)))
    np.testing.assert_allclose(base, reference_path_costs(spec, ens["Y"], ens["Z"], ens["u"],
                                                          W), rtol=0.0, atol=tol)
    assert abs(rep.j0_value - j0.mean()) <= tol
    assert [row.eps for row in rep.rows] == list(eps_grid)
    for row in rep.rows:
        eps = row.eps
        diff = path_costs(spec, ens["Y"] + eps * traj.Y, ens["Z"] + eps * traj.Z,
                               ens["u"] + eps * traj.u, W) - base
        defect = diff - eps ** 2 * j0
        assert abs(row.cost_diff - diff.mean()) <= tol, eps
        assert abs(row.defect - defect.mean()) <= tol, eps
        assert abs(row.diff_stderr - mc_stderr(diff)) <= tol, eps
        assert abs(row.defect_stderr - mc_stderr(defect)) <= tol, eps
        assert row.quadratic_term == pytest.approx(eps ** 2 * j0.mean(), abs=tol)


def noisy_forward():
    """SF with additive noise, and a companion cost with every block,
    linear weight and terminal weight of the forward form nonzero."""
    sf = bslq.builtin_scenario("SF", steps=50, x0=1.0)
    sf = sf.replace(sigma=AffineProcess.of_constants([0.3], [0.2], sf.grid))
    psol = bslq.solve_forward_riccati(sf)
    bw = bslq.BrownianEnsemble.generate(3, 300, sf.grid)
    ens = bslq.simulate_forward_closed_loop(sf, psol, bslq.solve_eta_zeta(sf, psol), bw)
    grid = sf.grid
    full = sf.replace(cQ=MatrixPath.constant([[0.4]], grid),
                      cS=MatrixPath.constant([[0.2]], grid),
                      qTilde=AffineProcess.of_constants([0.3], [0.2], grid),
                      rhoTilde=AffineProcess.of_constants([-0.1], [0.4], grid),
                      gTilde=np.array([0.5]))
    return full, ens


def test_forward_cost_matches_reference():
    spec, ens = noisy_forward()
    W = ens.brownian.W
    ref = reference_forward_costs(spec, ens["X"], ens["v"], W)
    terminal, running = form_parts(cost_form(spec), (ens["X"], ens["v"]), W)
    np.testing.assert_allclose(terminal + running, ref, rtol=0.0,
                               atol=1e-12 * max(1.0, np.max(np.abs(ref))))
    rep = bslq.evaluate_cost(spec, ens)
    assert rep.estimate == pytest.approx(ref.mean(), rel=1e-12)
    assert rep.stderr == pytest.approx(mc_stderr(ref), rel=1e-10)


def test_cost_kernel_samples_no_process(monkeypatch, spec_2d, brownian_cache):
    # The kernel reads the linear weights and affine trajectories at the
    # nodes: no (paths, N+1, dim) sample of q, rho1, rho2, qTilde or rhoTilde
    # is built inside it, and the perturbation table and the probe, which
    # cost affine trajectories only, sample no process at all.  The kernel is
    # the quadratic form in xi with its node tables, and the sampled route.
    kernel = {f.__code__ for f in (cost_form, form_parts, CostForm.xi_parts,
                                   _quad_sums)}
    inside, outside = [], []
    sample = AffineProcess.sample

    def counted(self, W):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in kernel:
            frame = frame.f_back
        (inside if frame is not None else outside).append(self)
        return sample(self, W)

    monkeypatch.setattr(AffineProcess, "sample", counted)
    spec, synth = optimum("2x2", spec_2d, brownian_cache, paths=50)
    v = bslq.random_affine_control(spec.grid, spec.m, np.random.default_rng(1))
    bslq.evaluate_cost(spec, synth.ensemble)
    fspec, fens = noisy_forward()
    bslq.evaluate_cost(fspec, fens)
    bslq.stationarity_residual(spec, synth.ensemble)
    assert outside == [] and inside == []
    spec.rho2.sample(synth.ensemble.brownian.W)
    assert outside  # the counter sees the sampling done outside the kernel
    outside.clear()
    bslq.perturbation_identity(spec, synth.ensemble, v, [0.5])
    bslq.convexity_probe(spec, trials=2, seed=3)
    assert outside == [] and inside == []


# -- the quadratic form in xi against the sampled kernel ------------------------

XI_RTOL = 1e-14


def magnitude(form):
    """The form with every table replaced by its absolute values: costed on
    |s| and |W| it sums the magnitudes of the terms, the scale of rounding."""
    return CostForm(*(np.abs(x) for x in (form.M, form.a, form.b, form.G, form.g)),
                    form.at, form.dt)


def sampled_cross(form, s, t, W):
    """B(s, t) + L(t) + <G x_s, x_t> + <g, x_t> per path, on sampled slots."""
    N, at, n = len(form.M), form.at, len(form.g)
    s, t = (np.concatenate(x, axis=-1) for x in (s, t))
    sk, tk = s[:, :N], t[:, :N]
    running = (np.einsum("pki,pki->pk", mv(form.M, sk), tk)
               + np.einsum("pki,ki->pk", tk, form.a)
               + W[:, :N] * np.einsum("pki,ki->pk", tk, form.b))
    xs, xt = s[:, at, :n], t[:, at, :n]
    return (np.einsum("pi,ij,pj->p", xs, form.G, xt) + xt @ form.g
            + running.sum(axis=1) * form.dt)


def assert_xi_form_matches_sampled(spec, ens, v=None):
    """The ensemble's cost parts, and for a control ``v`` the perturbation's
    J0 and cross term, costed through slot maps as ``verify`` does, against
    the sampled kernel on the sampled trajectories, within XI_RTOL of the
    magnitude of the terms."""
    W = ens.brownian.W
    form = cost_form(spec)
    forward = isinstance(spec, bslq.ForwardProblemSpec)
    slots = (ens["X"], ens["v"]) if forward else (ens["Y"], ens["Z"], ens["u"])
    abs_slots = tuple(map(np.abs, slots))
    scales = form_parts(magnitude(form), abs_slots, np.abs(W))
    refs = form_parts(form, slots, W)
    xi = (*np.moveaxis(ens.state, -1, 0), W)
    for new, ref, scale in zip(form.xi_parts(xi, ens.slot_map), refs, scales):
        assert np.all(np.abs(new - ref) <= XI_RTOL * scale)
    ref, tol = sum(refs), XI_RTOL * np.max(sum(scales))
    assert abs(bslq.evaluate_cost(spec, ens).estimate - ref.mean()) <= tol
    if v is None:
        return
    hspec = bslq.homogeneous(spec)
    traj = sample_affine_control(hspec, v, ens.brownian)
    t = (traj.Y, traj.Z, traj.u)
    j0 = path_costs(hspec, *t, W)
    j0_tol = XI_RTOL * np.max(sum(form_parts(magnitude(cost_form(hspec)),
                                          tuple(map(np.abs, t)), np.abs(W))))
    defect = 2.0 * sampled_cross(form, slots, t, W)
    defect_tol = XI_RTOL * np.max(2.0 * sampled_cross(magnitude(form), abs_slots,
                                                      tuple(map(np.abs, t)), np.abs(W)))
    (row,) = bslq.perturbation_identity(spec, ens, v, [1.0]).rows
    assert abs(row.quadratic_term - j0.mean()) <= j0_tol
    assert abs(row.defect - defect.mean()) <= defect_tol
    assert abs(row.defect_stderr - mc_stderr(defect)) <= defect_tol


@pytest.mark.parametrize("name", list(bslq.BUILTIN_NAMES) + ["2x2", "SF-noisy"])
def test_xi_form_matches_sampled_kernel(name, spec_2d, brownian_cache):
    if name == "SF-noisy":
        assert_xi_form_matches_sampled(*noisy_forward())
        return
    if name == "SF":
        spec = bslq.builtin_scenario("SF", steps=50)
        psol = bslq.solve_forward_riccati(spec)
        ens = bslq.simulate_forward_closed_loop(spec, psol, bslq.solve_eta_zeta(spec, psol),
                                                brownian_cache(7, 300, 50))
        assert_xi_form_matches_sampled(spec, ens)
        return
    spec, synth = optimum(name, spec_2d, brownian_cache, paths=300)
    v = bslq.random_affine_control(spec.grid, spec.m, np.random.default_rng(5))
    assert_xi_form_matches_sampled(spec, synth.ensemble, v)


@pytest.mark.parametrize("name", ["S1", "S4", "SX", "SH", "2x2"])
def test_probe_ratio_matches_sampled_route_closely(name, spec_2d):
    # The probe's numerator and energy are quadratic forms in xi = (W, 1), so
    # their expectations are their means over the two paths W = +-sqrt(t),
    # whose first two moments are exact: sampled trajectories on those paths
    # give the exact ratio up to rounding.
    spec = spec_2d if name == "2x2" else bslq.builtin_scenario(name, steps=50)
    rep = bslq.convexity_probe(spec, trials=4, seed=11)
    hspec, controls = probe_controls(spec, 4, 11)
    grid = hspec.grid
    root = np.sqrt(grid.nodes)
    two_point = SimpleNamespace(W=np.stack((root, -root)))
    for ratio, v in zip(rep.ratios, controls):
        traj = sample_affine_control(hspec, v, two_point)
        u = traj.u[:, :grid.steps]
        num = path_costs(hspec, traj.Y, traj.Z, traj.u, two_point.W)
        ref = num.mean() / (np.einsum("pki,pki->p", u, u).mean() * grid.dt)
        assert abs(ratio - ref) <= XI_RTOL * abs(ref)


XI_ERRORS = (IntegrationError, PositivityError, ReductionError, SimulationError,
             SingularityError)


@st.composite
def xi_problems(draw):
    """A backward problem with n, m <= 2, constant coefficients, R22 definite
    and affine noise in every data slot; or a scalar forward problem with
    nonhomogeneous b, sigma, qTilde, rhoTilde and gTilde.  Also a seed."""
    grid = TimeGrid(1.0, draw(st.integers(4, 12)))

    def arr(shape, bound):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.floats(-bound, bound), min_size=size,
                                      max_size=size))).reshape(shape)

    def sym(k, bound):
        M = arr((k, k), bound)
        return 0.5 * (M + M.T)

    def mat(M):
        return MatrixPath.constant(M, grid)

    def aff(k):
        return AffineProcess.of_constants(arr((k,), 1.0), arr((k,), 1.0), grid)

    seed = draw(st.integers(0, 1000))
    if draw(st.booleans()):
        sf = bslq.builtin_scenario("SF", steps=grid.steps)
        return sf.replace(grid=grid, cA=mat(arr((1, 1), 1.0)), cB=mat(arr((1, 1), 1.0)),
                          cC=mat(arr((1, 1), 0.5)), cD=mat(arr((1, 1), 0.5)),
                          cQ=mat(sym(1, 1.0)), cS=mat(arr((1, 1), 0.5)),
                          cR=mat(sym(1, 0.5) + 1.0), cG=sym(1, 1.0), gTilde=arr((1,), 1.0),
                          b=aff(1), sigma=aff(1), qTilde=aff(1), rhoTilde=aff(1),
                          x0=arr((1,), 1.0)), seed
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    R12 = arr((n, m), 0.5)
    return bslq.ProblemSpec(
        n=n, m=m, grid=grid,
        A=mat(arr((n, n), 0.5)), B=mat(arr((n, m), 1.0)), C=mat(arr((n, n), 0.5)),
        f=aff(n), G=sym(n, 1.0), g=arr((n,), 1.0),
        Q=mat(sym(n, 1.0)), S1=mat(arr((n, n), 0.5)), S2=mat(arr((m, n), 0.5)),
        R11=mat(sym(n, 1.0)), R12=mat(R12), R21=mat(R12.T.copy()),
        R22=mat(sym(m, 0.5) + 1.5 * np.eye(m)),
        q=aff(n), rho1=aff(n), rho2=aff(m), xi=aff(n),
    ), seed


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(xi_problems())
def test_xi_form_matches_sampled_kernel_property(problem):
    spec, seed = problem
    brownian = bslq.BrownianEnsemble.generate(seed, 40, spec.grid)
    try:
        if isinstance(spec, bslq.ForwardProblemSpec):
            psol = bslq.solve_forward_riccati(spec)
            ens = bslq.simulate_forward_closed_loop(spec, psol, bslq.solve_eta_zeta(spec, psol),
                                                    brownian)
            v = None
        else:
            ens = bslq.synthesize_optimal(spec, brownian).ensemble
            v = bslq.random_affine_control(spec.grid, spec.m, np.random.default_rng(seed))
    except XI_ERRORS:
        assume(False)
    assert_xi_form_matches_sampled(spec, ens, v)


# -- convexity probe -------------------------------------------------------------


def probe_controls(spec, trials, seed):
    """The homogeneous problem and the random controls the probe draws."""
    hspec = bslq.homogeneous(spec)
    key = np.array([seed, 0xC0FFEE], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return hspec, [bslq.random_affine_control(hspec.grid, hspec.m, rng) for _ in range(trials)]


def reference_probe(spec, trials, seed, paths, block=20_000):
    """(ratio, stderr) per probe control by Monte Carlo over ``paths``
    Brownian paths, drawn in blocks to bound memory: J0 and the energy per
    path as forms in xi = (W, 1), the stderr the delta-method one of a ratio
    of means from the linearised residual."""
    hspec, controls = probe_controls(spec, trials, seed)
    grid, form = hspec.grid, cost_form(hspec)
    states = bslq.solve_controlled_state(hspec, controls)
    maps = [controlled_map(state, v) for state, v in zip(states, controls)]
    num, den = [[] for _ in controls], [[] for _ in controls]
    for first in range(0, paths, block):
        W = bslq.BrownianEnsemble.generate(seed, min(block, paths - first), grid, first).W
        for v, L, n, d in zip(controls, maps, num, den):
            n.append(sum(form.xi_parts((W,), L)))
            d.append(_square_sums(v, W, slice(grid.steps)) * grid.dt)
    out = []
    for n, d in zip(map(np.concatenate, num), map(np.concatenate, den)):
        ratio = n.mean() / d.mean()
        out.append((ratio, mc_stderr((n - ratio * d) / d.mean())))
    return out


@pytest.mark.parametrize("name", ["S4", "S5", "SX", "SH", "2x2"])
def test_probe_matches_sampled_route(name, spec_2d):
    # Each exact ratio lies within 4 standard errors of the Monte-Carlo ratio
    # of the same control at 1e5 paths.
    spec = spec_2d if name == "2x2" else bslq.builtin_scenario(name, steps=50)
    rep = bslq.convexity_probe(spec, trials=16, seed=11)
    ref = reference_probe(spec, 16, 11, 100_000)
    assert len(rep.ratios) == len(ref) == 16
    for ratio, (mc, stderr) in zip(rep.ratios, ref):
        assert abs(ratio - mc) <= 4.0 * stderr, (ratio, mc, stderr)
    assert rep.delta_hat == min(rep.ratios)


def test_probe_unit_ratio_s1():
    spec = bslq.builtin_scenario("S1", steps=100)
    rep = bslq.convexity_probe(spec, trials=8, seed=3)
    assert rep.delta_hat == pytest.approx(1.0, abs=1e-12)
    assert rep.ratios == pytest.approx([1.0] * 8, abs=1e-12)
    assert not rep.certificate


def test_probe_positive_s5():
    spec = bslq.builtin_scenario("S5", steps=100)
    rep = bslq.convexity_probe(spec, trials=16, seed=3)
    assert rep.delta_hat > 0.0
    assert not rep.certificate


def test_probe_negative_certificate():
    spec = bslq.builtin_scenario("S1", steps=100)
    spec = spec.replace(R22=MatrixPath.constant([[-1.0]], spec.grid))
    rep = bslq.convexity_probe(spec, trials=8, seed=3)
    assert rep.delta_hat < 0.0
    assert rep.certificate
    assert rep.ratios == pytest.approx([-1.0] * 8, abs=1e-12)  # J0 = -E int |v|^2


def test_probe_draws_no_brownian_path(monkeypatch, spec_2d):
    calls = []
    generate = bslq.BrownianEnsemble.generate

    def spy(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(bslq.BrownianEnsemble, "generate", spy)
    bslq.convexity_probe(spec_2d, trials=2, seed=3)
    bslq.convexity_probe(bslq.builtin_scenario("S5", steps=50), trials=2, seed=3)
    assert calls == []
    bslq.BrownianEnsemble.generate(3, 2, spec_2d.grid)
    assert len(calls) == 1  # the spy sees a draw


def test_delta_hat_row_is_the_same_at_every_seed():
    spec = bslq.builtin_scenario("S5", steps=20)
    rows = [next((r.value, r.threshold) for r in bslq.verify(
        spec, paths=50, seed=seed, trials=4).rows if r.name == "delta_hat")
        for seed in (1, 2)]
    assert rows[0] == rows[1]
    assert rows[0][1] == 0.0


# -- a-priori bound ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["S1", "S2", "S4", "SX", "SH"])
def test_apriori_bound(name, synth_cache):
    spec, synth = synth_cache(name, paths=500)
    check = bslq.apriori_bound_check(spec, synth.ensemble)
    assert check.ok
    assert np.isfinite(check.constant)


@pytest.mark.parametrize("name", ["S1", "S2", "S4", "S5", "SX", "SH", "2x2"])
def test_apriori_moments_match_the_field_route(name, spec_2d, brownian_cache):
    # The second moments tr(L S_k L^T) against the fields Y, Z, u themselves.
    spec = spec_2d if name == "2x2" else bslq.builtin_scenario(name, steps=50)
    ens = bslq.synthesize_optimal(spec, brownian_cache(7, 300, spec.grid.steps)).ensemble
    check = bslq.apriori_bound_check(spec, ens)
    lhs, data = apriori_by_fields(spec, ens)
    assert check.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
    assert check.rhs == pytest.approx(check.constant * data, rel=1e-12, abs=0.0)


# -- forward value -----------------------------------------------------------------


def test_forward_value_matches_formula():
    sf = bslq.builtin_scenario("SF", x0=1.0)
    psol = bslq.solve_forward_riccati(sf)
    adj = bslq.solve_eta_zeta(sf, psol)
    bw = bslq.BrownianEnsemble.generate(11, 2000, sf.grid)
    ens = bslq.simulate_forward_closed_loop(sf, psol, adj, bw)
    rep = bslq.forward_value(sf, psol, adj, ens)
    assert rep.formula == pytest.approx(0.5, abs=1e-8)
    assert rep.gap <= 3.0 * rep.mc.stderr + 0.01


def test_forward_value_zero_start():
    sf = bslq.builtin_scenario("SF", x0=0.0)
    psol = bslq.solve_forward_riccati(sf)
    adj = bslq.solve_eta_zeta(sf, psol)
    bw = bslq.BrownianEnsemble.generate(11, 200, sf.grid)
    ens = bslq.simulate_forward_closed_loop(sf, psol, adj, bw)
    rep = bslq.forward_value(sf, psol, adj, ens)
    assert rep.formula == 0.0
    assert rep.mc.estimate == 0.0


def test_forward_value_quadratic_scaling():
    sf = bslq.builtin_scenario("SF", x0=2.0)
    psol = bslq.solve_forward_riccati(sf)
    formula = float(sf.x0 @ psol.P[0] @ sf.x0)
    assert formula == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("x0,b,gT", [(1.0, 0.3, 0.0), (1.0, 0.0, 0.3), (0.5, -0.2, 0.4)])
def test_forward_value_formula_constant_drift_closed_form(x0, b, gT):
    # dX = (v + b) dt on [0, 1] with cost X(1)^2 + 2 gT X(1) + int v^2: the
    # optimal v is constant, and with c = x0 + b the value is
    # c^2 / 2 + gT c - gT^2 / 2, up to the trapezoid rule's O(dt^2) bias
    # (about 1e-6 at 200 steps).
    sf = bslq.builtin_scenario("SF", x0=x0)
    sf = sf.replace(b=AffineProcess.of_constants([b], [0.0], sf.grid), gTilde=np.array([gT]))
    psol = bslq.solve_forward_riccati(sf)
    formula = bslq.forward_value_formula(sf, psol, bslq.solve_eta_zeta(sf, psol))
    c = x0 + b
    assert formula == pytest.approx(c * c / 2.0 + gT * c - gT * gT / 2.0, abs=1e-5)


def nonhomogeneous_sf(*names):
    """SF at 100 steps with the named nonhomogeneous coefficients nonzero."""
    sf = bslq.builtin_scenario("SF", steps=100, x0=1.0)
    data = {"b": AffineProcess.of_constants([0.3], [0.0], sf.grid),
            "gTilde": np.array([0.3]),
            "sigma": AffineProcess.of_constants([0.2], [0.1], sf.grid),
            "rhoTilde": AffineProcess.of_constants([0.1], [0.2], sf.grid),
            "qTilde": AffineProcess.of_constants([0.2], [0.0], sf.grid)}
    return sf.replace(**{name: data[name] for name in names or data})


@pytest.mark.parametrize("names", [("b",), ("gTilde",), ("sigma",), ("rhoTilde",),
                                   ("qTilde",), ()])
def test_verify_forward_passes_with_nonhomogeneous_data(names):
    # () sets every coefficient at once.
    result = bslq.verify(nonhomogeneous_sf(*names), paths=10000, seed=1)
    assert result.passed, [(r.name, r.value, r.threshold) for r in result.rows]


def test_forward_value_formula_is_homogeneous_value_without_data():
    sf = bslq.builtin_scenario("SF", x0=1.5)
    psol = bslq.solve_forward_riccati(sf)
    formula = bslq.forward_value_formula(sf, psol, bslq.solve_eta_zeta(sf, psol))
    assert formula == float(sf.x0 @ psol.P[0] @ sf.x0)


# -- verification orchestration ------------------------------------------------------


def test_verify_backward_passes():
    result = bslq.verify(bslq.builtin_scenario("S4", steps=100),
                         paths=2000, seed=42, trials=4)
    assert result.passed
    names = {r.name for r in result.rows}
    assert {"riccati_residual", "stationarity_sup", "value_gap",
            "delta_hat"} <= names


def test_verify_forward_passes():
    result = bslq.verify(bslq.builtin_scenario("SF", steps=100), paths=2000)
    assert result.passed
    assert any(r.name == "forward_value_gap" for r in result.rows)
