"""Brownian ensembles, dual SDE simulation and pointwise synthesis."""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import make_spec_2d
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import mean_consistency

import bslq
from bslq.cli import main
from bslq.errors import SimulationError
from bslq.grid import AffineProcess, MatrixPath, TimeGrid, mv
from bslq import simulate as sim
from bslq.simulate import _euler_loop, _time_major


# -- Brownian ensembles -------------------------------------------------------


def _per_path_reference(seed, paths, steps):
    """The per-path generator the blocked kernel replaces: one numpy Philox
    per path, counters from 1, and one ndtri call per path."""
    from scipy.special import ndtri

    inc = np.empty((paths, steps))
    for p in range(paths):
        key = np.array([seed % 2 ** 64, p], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(steps)
        inc[p] = ndtri((raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)
    return inc * np.sqrt(TimeGrid(1.0, steps).dt)


@pytest.mark.parametrize("steps", [1, 3, 37, 401])
@pytest.mark.parametrize("seed", [0, 7, -5, 2 ** 64 - 1])
def test_increments_reproduce_the_per_path_stream(seed, steps):
    block = sim.PATH_BLOCK
    reference = _per_path_reference(seed, 2 * block + 1, steps)
    for paths in (1, block - 1, block, block + 1, 2 * block + 1):
        bw = bslq.BrownianEnsemble.generate(seed, paths, TimeGrid(1.0, steps))
        assert bw.increments.tobytes() == reference[:paths].tobytes(), paths


def test_increments_match_a_frozen_digest():
    # Taken from the per-path generator: pins the stream even if numpy's
    # Philox and the kernel were to change together.
    bw = bslq.BrownianEnsemble.generate(-5, 3, TimeGrid(1.0, 37))
    assert hashlib.sha256(bw.increments.tobytes()).hexdigest() == (
        "69eadd5d799f9a749fefdb97e0cbad534224a3de372a55f58841f360d6f83f72")


def test_generate_memory_is_bounded():
    grid = TimeGrid(1.0, 50)
    bslq.BrownianEnsemble.generate(3, 1, grid)  # the first draw loads scipy
    tracemalloc.start()
    try:
        bw = bslq.BrownianEnsemble.generate(3, 20000, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The kernel works on fixed path blocks, so its temporaries do not grow
    # with the path count.
    assert peak - bw.increments.nbytes - bw.W.nbytes <= 2 * 2 ** 20


def test_an_all_ones_word_gives_a_finite_increment(monkeypatch):
    # The top 2**11 words map to u = 1.0 before the clamp, and ndtri(1) = inf.
    monkeypatch.setattr(sim, "_philox_words", lambda seed, first, paths, count: np.full(
        (paths, count), 2 ** 64 - 1, dtype=np.uint64))
    from scipy.special import ndtri

    grid = TimeGrid(1.0, 7)
    bw = bslq.BrownianEnsemble.generate(3, 5, grid)
    assert np.all(np.isfinite(bw.increments))
    assert np.all(bw.increments == np.sqrt(grid.dt) * ndtri(1.0 - 2.0 ** -53))


def test_increment_is_pure_function_of_seed_path_step():
    grid = TimeGrid(1.0, 50)
    small = bslq.BrownianEnsemble.generate(42, 10, grid)
    large = bslq.BrownianEnsemble.generate(42, 500, grid)
    np.testing.assert_array_equal(small.increments, large.increments[:10])
    again = bslq.BrownianEnsemble.generate(42, 10, grid)
    np.testing.assert_array_equal(small.W, again.W)


def test_different_seeds_differ():
    grid = TimeGrid(1.0, 16)
    a = bslq.BrownianEnsemble.generate(1, 4, grid)
    b = bslq.BrownianEnsemble.generate(2, 4, grid)
    assert not np.array_equal(a.increments, b.increments)


def test_mean_consistency_smoke():
    grid = TimeGrid(1.0, 100)
    bw = bslq.BrownianEnsemble.generate(42, 4000, grid)
    dev, allowance = mean_consistency(bw)
    assert dev <= allowance


def test_coarsen_sums_increments():
    grid = TimeGrid(1.0, 64)
    fine = bslq.BrownianEnsemble.generate(3, 20, grid)
    coarse = fine.coarsen(4)
    assert coarse.grid.steps == 16
    np.testing.assert_array_equal(
        coarse.increments, fine.increments.reshape(20, 16, 4).sum(axis=2))
    # terminal values agree exactly with the fine accumulation order
    np.testing.assert_allclose(coarse.W[:, -1], fine.W[:, -1], atol=1e-12)


def test_coarsen_requires_divisibility():
    grid = TimeGrid(1.0, 10)
    bw = bslq.BrownianEnsemble.generate(0, 2, grid)
    with pytest.raises(ValueError):
        bw.coarsen(4)


def test_increment_variance_scale():
    grid = TimeGrid(1.0, 200)
    bw = bslq.BrownianEnsemble.generate(11, 2000, grid)
    var = bw.increments.var()
    assert var == pytest.approx(grid.dt, rel=0.05)


# -- dual SDE ------------------------------------------------------------------


def synthesize(name, seed=42, paths=500, steps=200, **kw):
    spec = bslq.builtin_scenario(name, steps=steps, **kw)
    bw = bslq.BrownianEnsemble.generate(seed, paths, spec.grid)
    return spec, bw, bslq.synthesize_optimal(spec, bw)


def test_dual_sde_constant_case():
    # All coefficient products vanish and X(0) = g = 1, so X is constant.
    spec, bw, synth = synthesize("S2")
    np.testing.assert_array_equal(synth.ensemble.state,
                                  np.ones_like(synth.ensemble.state))


def test_dual_sde_zero_case():
    spec, bw, synth = synthesize("S1")
    assert not np.any(synth.ensemble.state)


def test_dual_sde_explicit_increments():
    # For xi = W(T) with R11 = 1 the dual diffusion is 1/(2 - t) and the
    # drift vanishes, so the Euler path is the running sum of the scaled
    # increments, bitwise up to summation rounding.
    spec, bw, synth = synthesize("S4", paths=100)
    t = spec.grid.nodes
    manual = np.zeros((100, len(t)))
    scale = 1.0 / (2.0 - t[:-1])
    manual[:, 1:] = np.cumsum(scale[None, :] * bw.increments, axis=1)
    np.testing.assert_allclose(synth.ensemble.state[:, :, 0], manual, atol=1e-13)


def test_dual_sde_initial_condition():
    spec, bw, synth = synthesize("S2", paths=50)
    np.testing.assert_array_equal(synth.ensemble.state[:, 0, 0],
                                  np.full(50, spec.g[0]))


# -- synthesis -----------------------------------------------------------------


def test_synthesis_s2():
    spec, bw, synth = synthesize("S2", paths=200)
    ens = synth.ensemble
    t = spec.grid.nodes
    np.testing.assert_allclose(ens["u"], 1.0, atol=1e-12)
    np.testing.assert_allclose(ens["Y"][:, :, 0], np.broadcast_to(t, ens["Y"][:, :, 0].shape),
                               atol=1e-12)  # Y = c - 1 + t with c = 1
    assert not np.any(ens["Z"])


def test_synthesis_s4():
    spec, bw, synth = synthesize("S4", paths=200)
    ens = synth.ensemble
    t = spec.grid.nodes
    np.testing.assert_allclose(ens["u"], ens.state, atol=1e-13)
    np.testing.assert_allclose(ens["Z"][:, :, 0],
                               np.broadcast_to(1.0 / (2.0 - t), ens["Z"][:, :, 0].shape),
                               atol=1e-12)


def test_synthesis_s1_all_zero():
    _, _, synth = synthesize("S1", paths=50)
    ens = synth.ensemble
    for arr in (ens["X"], ens.state, ens["u"], ens["Y"], ens["Z"]):
        assert not np.any(arr)


def test_terminal_hit_exact():
    for name in ("S2", "S4", "SX", "SH"):
        spec, bw, synth = synthesize(name, paths=100)
        xi = spec.xi.sample(bw.W)[:, -1, :]
        assert np.max(np.abs(synth.ensemble["Y"][:, -1, :] - xi)) == 0.0


def test_initial_state_deterministic_across_paths():
    spec, bw, synth = synthesize("S4", paths=100)
    Y0 = synth.ensemble["Y"][:, 0, 0]
    assert np.all(Y0 == Y0[0])


def test_adjoint_equals_dual_without_shift():
    # H = 0 for S4, so the adjoint state is the dual state bitwise.
    _, _, synth = synthesize("S4", paths=20)
    np.testing.assert_array_equal(synth.ensemble["X"], synth.ensemble.state)


def test_adjoint_differs_with_shift():
    spec, bw, synth = synthesize("SH", paths=20)
    ens = synth.ensemble
    assert np.any(ens["X"] != ens.state)
    # X* = X - H Y with H(t) = -t
    t = spec.grid.nodes
    expected = ens.state[:, :, 0] + t[None, :] * ens["Y"][:, :, 0]
    np.testing.assert_allclose(ens["X"][:, :, 0], expected, atol=1e-12)


@pytest.mark.parametrize("name", ["S4", "SX"])
def test_state_equation_one_step_defect(name):
    # The synthesized (Y, Z, u) satisfy the state dynamics weakly: the
    # one-step Euler defect has RMS O(dt^{3/2}) <= 5 dt per node.
    spec, bw, synth = synthesize(name, paths=2000)
    ens = synth.ensemble
    N, dt = spec.grid.steps, spec.grid.dt
    A = spec.A.node_values()[:N]
    B = spec.B.node_values()[:N]
    C = spec.C.node_values()[:N]
    f = spec.f.sample(bw.W)[:, :N, :]
    drift = (np.einsum("kij,pkj->pki", A, ens["Y"][:, :N])
             + np.einsum("kij,pkj->pki", B, ens["u"][:, :N])
             + np.einsum("kij,pkj->pki", C, ens["Z"][:, :N]) + f)
    defect = (ens["Y"][:, 1:] - ens["Y"][:, :N] - drift * dt
              - ens["Z"][:, :N] * bw.increments[:, :, None])
    rms = np.sqrt(np.mean(defect ** 2, axis=(0, 2)))
    assert np.max(rms) <= 5.0 * dt


def test_strong_convergence_order():
    # Coupled refinement on S4: strong order of the Euler scheme >= 1/2
    # (additive noise actually gives order one).
    fine_grid = TimeGrid(1.0, 400)
    fine = bslq.BrownianEnsemble.generate(202, 2000, fine_grid)
    errs = []
    for N in (50, 100, 200):
        bw_c = fine.coarsen(400 // N)
        bw_f = fine.coarsen(400 // (2 * N))
        s_c = bslq.synthesize_optimal(bslq.builtin_scenario("S4", steps=N), bw_c)
        s_f = bslq.synthesize_optimal(bslq.builtin_scenario("S4", steps=2 * N), bw_f)
        errs.append(np.sqrt(np.mean(
            (s_c.ensemble.state[:, -1, 0] - s_f.ensemble.state[:, -1, 0]) ** 2)))
    order = np.polyfit(np.log([50, 100, 200]), np.log(errs), 1)[0]
    assert -order >= 0.5


def test_blow_up_detection():
    grid = TimeGrid(1.0, 200)
    bw = bslq.BrownianEnsemble.generate(0, 4, grid)
    drift = np.zeros((201, 1, 3))
    drift[..., 0] = 1e4                 # Euler factor ~51 per step: overflows
    with pytest.raises(SimulationError, match="step"):
        with np.errstate(over="ignore", invalid="ignore"):
            _euler_loop(np.ones((4, 1)), drift, 0.0 * drift, bw, "test SDE")


# -- forward closed loop -------------------------------------------------------


def forward_loop(x0=1.0, paths=200, seed=11):
    sf = bslq.builtin_scenario("SF", x0=x0)
    psol = bslq.solve_forward_riccati(sf)
    adj = bslq.solve_eta_zeta(sf, psol)
    bw = bslq.BrownianEnsemble.generate(seed, paths, sf.grid)
    return sf, psol, bslq.simulate_forward_closed_loop(sf, psol, adj, bw)


def test_forward_loop_zero_start():
    _, _, ens = forward_loop(x0=0.0)
    assert not np.any(ens["X"])
    assert not np.any(ens["v"])


def test_forward_loop_closed_form():
    # Feedback v = -X/(2 - t) makes X(t) = (2 - t)/2 and v = -1/2; the
    # Euler recursion reproduces the linear-in-t solution exactly.
    sf, _, ens = forward_loop(x0=1.0)
    t = sf.grid.nodes
    np.testing.assert_allclose(ens["X"][:, :, 0],
                               np.broadcast_to((2.0 - t) / 2.0, ens["X"][:, :, 0].shape),
                               atol=1e-12)
    np.testing.assert_allclose(ens["v"], -0.5, atol=1e-12)


# -- node-affine synthesis against the sampled formulas -------------------------


def reference_euler_loop(X0, drift_parts, diff_parts, brownian, what):
    """The path-major Euler loop: strided [:, k, :] reads and writes."""
    F, c = drift_parts
    D, e = diff_parts
    P, N, dt = brownian.paths, brownian.grid.steps, brownian.grid.dt
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
                f"{what} blew up at path {bad}, step {k + 1} (t={(k + 1) * dt:g})")
        X[:, k + 1, :] = x
    return X


def reference_dual_sde(reduced, sigma, bsde, brownian):
    """The dual SDE with every data process sampled onto the paths."""
    spec = reduced.base
    A, S1, S2, R11, R22 = (p.node_values() for p in (
        spec.A, spec.S1, spec.S2, spec.R11, spec.R22))
    Sg, BS, CS, RSinv = sigma.Sigma, sigma.BofSigma, sigma.CofSigma, sigma.RofSigmaInv
    T = lambda M: np.swapaxes(M, -1, -2)  # noqa: E731
    s1_rinv = T(S1) @ RSinv
    s2_r22inv = T(np.linalg.solve(R22, S2))
    F = s1_rinv @ Sg @ T(CS) + s2_r22inv @ T(BS) - T(A)
    Gphi = -(s1_rinv @ Sg @ S1 + s2_r22inv @ S2)
    D = -T(RSinv) @ T(CS)
    W = brownian.W
    phi, rho1, rho2, q = (p.sample(W) for p in (bsde.phi, spec.rho1, spec.rho2, spec.q))
    beta = bsde.beta.a.node_values()
    c = (mv(Gphi, phi) + mv(s1_rinv, beta) - mv(s1_rinv @ Sg, rho1)
         - mv(s2_r22inv, rho2) + q)
    e = mv(T(RSinv) @ S1, phi) + mv(T(RSinv) @ R11, beta) + mv(T(RSinv), rho1)
    X0 = np.broadcast_to(spec.g, (brownian.paths, spec.n))
    return reference_euler_loop(X0, (F, c), (D, e), brownian, "dual SDE")


def reference_synthesize(reduced, sigma, bsde, X_dual, brownian):
    """(X, Y, Z, u) from the sampled phi, rho1, rho2 and map_control."""
    spec = reduced.base
    S1, S2, R22 = (p.node_values() for p in (spec.S1, spec.S2, spec.R22))
    Sg, BS, CS, RSinv = sigma.Sigma, sigma.BofSigma, sigma.CofSigma, sigma.RofSigmaInv
    W = brownian.W
    phi, rho1, rho2 = (p.sample(W) for p in (bsde.phi, spec.rho1, spec.rho2))
    beta = bsde.beta.a.node_values()
    Y = -mv(Sg, X_dual) + phi
    Z = (mv(RSinv @ Sg @ np.swapaxes(CS, -1, -2), X_dual) - mv(RSinv @ Sg @ S1, phi)
         - mv(RSinv @ Sg, rho1) + mv(RSinv, beta))
    v = mv(np.linalg.inv(R22), mv(np.swapaxes(BS, -1, -2), X_dual) - mv(S2, phi) - rho2)
    u = bslq.map_control(reduced, v, Z)
    return X_dual - mv(reduced.h.H, Y), Y, Z, u


def reference_forward(spec, psol, adjoint, brownian):
    """(X, v) of the forward closed loop from the sampled eta, sigma,
    rhoTilde and b."""
    B, C, D, R = (p.node_values() for p in (spec.cB, spec.cC, spec.cD, spec.cR))
    P, K, W = psol.P, psol.gain, brownian.W
    Dt = np.swapaxes(D, -1, -2)
    eta, sig, rho, bdrift = (p.sample(W) for p in (
        adjoint.phi, spec.sigma, spec.rhoTilde, spec.b))
    open_loop = (mv(np.swapaxes(B, -1, -2), eta) + mv(Dt, adjoint.beta.a.node_values())
                 + mv(Dt @ P, sig) + rho)
    feed = -mv(np.linalg.inv(R + Dt @ P @ D), open_loop)
    X = reference_euler_loop(np.broadcast_to(spec.x0, (brownian.paths, spec.n)),
                             (spec.cA.node_values() - B @ K, mv(B, feed) + bdrift),
                             (C - D @ K, mv(D, feed) + sig), brownian,
                             "forward closed loop")
    return X, -mv(K, X) + feed


def noisy_sf():
    """SF with state and control noise loadings and affine noise in sigma,
    rhoTilde and b, so every forcing of the closed loop has a W part."""
    sf = bslq.builtin_scenario("SF", steps=100, x0=1.0)
    return sf.replace(cC=MatrixPath.constant([[0.2]], sf.grid),
                      cD=MatrixPath.constant([[0.3]], sf.grid),
                      sigma=AffineProcess.of_constants([0.3], [0.2], sf.grid),
                      rhoTilde=AffineProcess.of_constants([-0.1], [0.4], sf.grid),
                      b=AffineProcess.of_constants([0.2], [-0.3], sf.grid))


def assert_close(actual, reference):
    np.testing.assert_allclose(actual, reference, rtol=0.0,
                               atol=1e-13 * max(1.0, np.max(np.abs(reference))))


@pytest.mark.parametrize("name", ["S2", "S4", "SX", "SH", "2x2", "SF"])
def test_node_affine_matches_sampled_route(name, spec_2d):
    # K (a + W b) = K a + W (K b): the node-level route is the sampled one
    # up to rounding, output by output.
    if name == "SF":
        spec = noisy_sf()
        psol = bslq.solve_forward_riccati(spec)
        adj = bslq.solve_eta_zeta(spec, psol)
        bw = bslq.BrownianEnsemble.generate(5, 300, spec.grid)
        ens = sim.simulate_forward_closed_loop(spec, psol, adj, bw)
        for actual, ref in zip((ens["X"], ens["v"]), reference_forward(spec, psol, adj, bw)):
            assert_close(actual, ref)
        return
    spec = spec_2d if name == "2x2" else bslq.builtin_scenario(name, steps=100)
    bw = bslq.BrownianEnsemble.generate(5, 300, spec.grid)
    synth = bslq.synthesize_optimal(spec, bw)
    reduced, sigma, bsde, ens = synth.reduced, synth.sigma, synth.bsde, synth.ensemble
    ref_dual = reference_dual_sde(reduced, sigma, bsde, bw)
    assert_close(ens.state, ref_dual)
    ref = reference_synthesize(reduced, sigma, bsde, ref_dual, bw)
    for actual, expected in zip((ens["X"], ens["Y"], ens["Z"], ens["u"]), ref):
        assert_close(actual, expected)
    assert np.all(ens["Y"][:, 0] == ens["Y"][0, 0])


def sampled_forcing(L, W):
    """a + W b on every path, path-major, from the (b, a) columns of a slot map."""
    return L[None, :, :, -1] + W[..., None] * L[None, :, :, -2]


@st.composite
def cross_weighted_problems(draw):
    """A backward problem with n, m <= 2, 40 steps and constant coefficients
    whose blocked weight [[Q, S1^T, S2^T], [S1, R11, R12], [S2, R21, R22]]
    is positive definite with nonzero cross weights R12 = R21^T, G positive
    semidefinite, and affine noise in every data slot; also a seed."""
    n, m, seed = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, 40)
    d = 2 * n + m
    M = rng.uniform(-1, 1, (d, d))
    weight = M @ M.T / d + 0.2 * np.eye(d)
    Q, S1, S2, R11, R12, R22 = (weight[rows, cols] for rows, cols in (
        (slice(n), slice(n)), (slice(n, 2 * n), slice(n)), (slice(2 * n, d), slice(n)),
        (slice(n, 2 * n), slice(n, 2 * n)), (slice(n, 2 * n), slice(2 * n, d)),
        (slice(2 * n, d), slice(2 * n, d))))
    G = rng.uniform(-1, 1, (n, n))

    def mat(X):
        return MatrixPath.constant(np.ascontiguousarray(X), grid)

    def aff(k):
        return AffineProcess.of_constants(rng.uniform(-1, 1, k), rng.uniform(-1, 1, k), grid)

    return bslq.ProblemSpec(
        n=n, m=m, grid=grid, A=mat(rng.uniform(-1, 1, (n, n))),
        B=mat(rng.uniform(-1, 1, (n, m))), C=mat(rng.uniform(-1, 1, (n, n))),
        f=aff(n), G=G @ G.T / n, g=rng.uniform(-1, 1, n), Q=mat(Q), S1=mat(S1), S2=mat(S2),
        R11=mat(R11), R12=mat(R12), R21=mat(R12.T), R22=mat(R22),
        q=aff(n), rho1=aff(n), rho2=aff(m), xi=aff(n)), seed


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cross_weighted_problems())
def test_cross_weighted_optimum_is_stationary_and_matches_references(problem):
    # v != u (cross weights) and H != 0 (G, Q): every row of the slot map and
    # both terms of X - H Y are exercised.
    spec, seed = problem
    bw = bslq.BrownianEnsemble.generate(seed, 30, spec.grid)
    synth = bslq.synthesize_optimal(spec, bw)
    ens = synth.ensemble
    assert np.any(synth.reduced.cross_gain) and np.any(synth.reduced.h.H)
    assert bslq.stationarity_residual(spec, ens).sup <= 1e-10
    ref_dual = reference_dual_sde(synth.reduced, synth.sigma, synth.bsde, bw)
    assert_close(ens.state, ref_dual)
    ref = reference_synthesize(synth.reduced, synth.sigma, synth.bsde, ref_dual, bw)
    for actual, expected in zip((ens["X"], ens["Y"], ens["Z"], ens["u"]), ref):
        assert_close(actual, expected)


def test_time_major_loop_matches_strided_loop():
    grid = TimeGrid(1.0, 40)
    bw = bslq.BrownianEnsemble.generate(9, 7, grid)
    rng = np.random.default_rng(4)
    drift, diffusion = rng.standard_normal((2, 41, 2, 4))
    X0 = rng.standard_normal((7, 2))
    # Forcings laid out time-major give the sampled values, read contiguously.
    c, e = (sampled_forcing(L, bw.W) for L in (drift, diffusion))
    np.testing.assert_array_equal(_time_major(drift, bw.W), c)
    ref = reference_euler_loop(X0, (drift[..., :2], c), (diffusion[..., :2], e), bw,
                               "test SDE")
    np.testing.assert_array_equal(_euler_loop(X0, drift, diffusion, bw, "test SDE"), ref)


def test_time_major_loop_blows_up_at_the_same_path_and_step():
    grid = TimeGrid(1.0, 200)
    bw = bslq.BrownianEnsemble.generate(0, 4, grid)
    drift = np.zeros((201, 1, 3))
    drift[..., 0] = 1e4
    zeros = np.zeros((4, 201, 1))
    X0 = np.array([[1.0], [1.0], [1e200], [1.0]])
    messages = []
    for run in (lambda: _euler_loop(X0, drift, 0.0 * drift, bw, "test SDE"),
                lambda: reference_euler_loop(X0, (drift[..., :1], zeros),
                                             (0.0 * drift[..., :1], zeros), bw, "test SDE")):
        with pytest.raises(SimulationError) as exc:
            with np.errstate(over="ignore", invalid="ignore"):
                run()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "path 2, step " in messages[0]


def test_synthesis_samples_no_process(monkeypatch, spec_2d):
    # The closed loops form their forcings and outputs at the nodes: no data
    # process is sampled in building, simulating or reading them, nor in a
    # streamed summary.
    path_layer = {f.__code__ for f in (sim._dual_loop, sim._forward_loop,
                                       sim._ClosedLoop.ensemble, sim.PathEnsemble.__getitem__,
                                       sim.simulate_forward_closed_loop,
                                       sim.simulate_summary)}
    inside, outside = [], []
    sample = AffineProcess.sample

    def counted(self, W):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in path_layer:
            frame = frame.f_back
        (inside if frame is not None else outside).append(self)
        return sample(self, W)

    monkeypatch.setattr(AffineProcess, "sample", counted)
    bw = bslq.BrownianEnsemble.generate(2, 50, spec_2d.grid)
    synth = bslq.synthesize_optimal(spec_2d, bw)
    spec_2d.xi.sample(bw.W)
    sf = noisy_sf()
    psol = bslq.solve_forward_riccati(sf)
    sim.simulate_forward_closed_loop(sf, psol, bslq.solve_eta_zeta(sf, psol),
                                 bslq.BrownianEnsemble.generate(2, 50, sf.grid))
    blocks = []
    for spec in (bslq.resample(spec_2d, 10), bslq.resample(sf, 10)):
        sim.simulate_summary(spec, 2, 50, per_block=lambda first, out: blocks.append(out))
    assert synth.ensemble["u"].shape == (50, 101, 2)
    assert [list(out) for out in blocks] == [["X", "Y", "Z", "u"], ["X", "v"]]
    assert outside  # the counter sees the sampling done outside the path layer
    assert inside == []


# -- streamed summary ----------------------------------------------------------


def full_ensemble_outputs(spec, seed, paths):
    """(X, Y, Z, u) or (X, v) of the whole-ensemble routes."""
    bw = bslq.BrownianEnsemble.generate(seed, paths, spec.grid)
    if isinstance(spec, bslq.ForwardProblemSpec):
        psol = bslq.solve_forward_riccati(spec)
        ens = sim.simulate_forward_closed_loop(spec, psol, bslq.solve_eta_zeta(spec, psol), bw)
        return ens["X"], ens["v"]
    ens = bslq.synthesize_optimal(spec, bw).ensemble
    return ens["X"], ens["Y"], ens["Z"], ens["u"]


def streamed_case(name, spec_2d):
    if name in ("2x2", "noisy SF"):
        return bslq.resample(spec_2d if name == "2x2" else noisy_sf(), 20)
    return bslq.builtin_scenario(name, steps=20)


@pytest.mark.parametrize("paths", [1, sim.PATH_BLOCK - 1, sim.PATH_BLOCK, sim.PATH_BLOCK + 1,
                                   2 * sim.PATH_BLOCK + 1])
@pytest.mark.parametrize("name", ["2x2", "S4", "SF", "noisy SF"])
def test_streamed_summary_matches_the_materialised_route(name, paths, spec_2d):
    spec = streamed_case(name, spec_2d)
    fields, mean, std = sim.simulate_summary(spec, 11, paths)
    outputs = np.concatenate(full_ensemble_outputs(spec, 11, paths), axis=-1)
    for stat, streamed in (("mean", mean), ("std", std)):
        columns = np.stack([getattr(outputs[:, k, i], stat)()
                            for k in range(outputs.shape[1])
                            for i in range(outputs.shape[2])]).reshape(streamed.shape)
        assert np.all(np.abs(streamed - columns) <= 1e-13 + 1e-12 * np.abs(columns)), stat
    assert list(fields) == (["X", "v"] if name.endswith("SF") else ["X", "Y", "Z", "u"])
    assert not np.any(std[0])  # every path starts at the same state


def test_streamed_memory_does_not_grow_with_paths(tmp_path):
    def peak(paths):
        tracemalloc.start()
        try:
            assert main(["simulate", "builtin:S4", "--steps", "50", "--paths", str(paths),
                         "--out", str(tmp_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first draw loads scipy
    assert peak(8 * sim.PATH_BLOCK) - peak(2 * sim.PATH_BLOCK) <= 2 ** 20


# -- one closed loop per problem -----------------------------------------------


def closed_loop_arrays(name):
    """The bitwise-pinned arrays of a closed loop at 50 steps: (Y, Z, u,
    X_dual, slot_map) of the optimum, or (X, v, slot_map) of noisy SF."""
    if name == "SF":
        spec = bslq.resample(noisy_sf(), 50)
        psol = bslq.solve_forward_riccati(spec)
        bw = bslq.BrownianEnsemble.generate(3, 200, spec.grid)
        ens = bslq.simulate_forward_closed_loop(spec, psol, bslq.solve_eta_zeta(spec, psol), bw)
        return ens["X"], ens["v"], ens.slot_map
    spec = make_spec_2d(50) if name == "2x2" else bslq.builtin_scenario(name, steps=50)
    ens = bslq.synthesize_optimal(spec, bslq.BrownianEnsemble.generate(3, 200, spec.grid)).ensemble
    return ens["Y"], ens["Z"], ens["u"], ens.state, ens.slot_map


def test_closed_loops_match_a_frozen_digest():
    # Taken while the dual SDE and the synthesis were separate functions:
    # building each loop once keeps every array but X* bitwise.
    digests = {
        "2x2": "1af1680e8cdf973a9aa38a1dad9af1a37a58f19af88a79a04a37b5f3cc2d04c5",
        "SH": "a6c06b64e2250ebc57ddb4f2d3cd7e8a8f96f184ebfc5520d8d405ce40f570a3",
        "SX": "2f1056cf23497789b31ea003757db985607bfb90688e2e01ebe6ae1190adad3b",
        "SF": "85034ef4f5ef44547323b49dd09ae504f3d77f8687b90d16466715544224bbc5",
    }
    for name, digest in digests.items():
        arrays = closed_loop_arrays(name)
        assert hashlib.sha256(b"".join(x.tobytes() for x in arrays)).hexdigest() == digest, name


@pytest.mark.parametrize("name", ["2x2", "SH"])
def test_adjoint_state_is_x_dual_minus_h_y(name):
    # X* is read off the X rows of the outputs map; it is X - H Y to rounding.
    spec = make_spec_2d(50) if name == "2x2" else bslq.builtin_scenario(name, steps=50)
    synth = bslq.synthesize_optimal(spec, bslq.BrownianEnsemble.generate(3, 200, spec.grid))
    ens = synth.ensemble
    expected = ens.state - mv(synth.reduced.h.H, ens["Y"])
    assert np.any(synth.reduced.h.H)
    assert np.max(np.abs(ens["X"] - expected)) <= 1e-15 * np.max(np.abs(ens["X"]))


def test_optimal_map_is_formed_once_per_solve(monkeypatch, spec_2d):
    calls = []
    optimal_map = sim._optimal_map

    def counted(*args):
        calls.append(args)
        return optimal_map(*args)

    monkeypatch.setattr(sim, "_optimal_map", counted)
    spec = bslq.resample(spec_2d, 10)
    bslq.synthesize_optimal(spec, bslq.BrownianEnsemble.generate(1, 30, spec.grid))
    assert len(calls) == 1
    firsts = []
    sim.simulate_summary(spec, 1, 2 * sim.PATH_BLOCK + 1,
                         per_block=lambda first, outputs: firsts.append(first))
    assert firsts == [0, sim.PATH_BLOCK, 2 * sim.PATH_BLOCK]
    assert len(calls) == 2


# -- fields formed when read ---------------------------------------------------


def test_verify_forms_only_the_fields_it_reads(monkeypatch):
    # verify_backward applies two maps on (X, W, 1): the m-row stationarity
    # residual at every node and Y's rows at the last node (terminal_hit);
    # the a-priori row reads second moments, and the costs and the forward
    # verify go through the slot map alone.
    calls = []
    gain_affine = sim._gain_affine

    def counted(*args):
        calls.append(args[0].shape[:2])  # (nodes, rows) of the map
        return gain_affine(*args)

    monkeypatch.setattr(sim, "_gain_affine", counted)
    monkeypatch.setattr(bslq.evaluate, "_gain_affine", counted)
    assert bslq.verify(make_spec_2d(10), paths=20, seed=1, trials=2).rows
    assert calls == [(11, 2), (1, 2)]
    calls.clear()
    assert bslq.verify(bslq.resample(noisy_sf(), 10), paths=20, seed=1).rows
    assert calls == []


def test_verify_backward_reads_no_field(monkeypatch):
    calls = []
    getitem = sim.PathEnsemble.__getitem__

    def spy(self, name):
        calls.append(name)
        return getitem(self, name)

    monkeypatch.setattr(sim.PathEnsemble, "__getitem__", spy)
    for spec in (make_spec_2d(10), bslq.builtin_scenario("S5", steps=10)):
        assert bslq.verify(spec, paths=20, seed=1, trials=2).rows
    assert calls == []
    spec = bslq.builtin_scenario("S5", steps=10)
    bslq.synthesize_optimal(spec, bslq.BrownianEnsemble.generate(1, 3, spec.grid)).ensemble["Y"]
    assert calls == ["Y"]  # the spy sees a read


def test_a_field_is_formed_once():
    spec = bslq.builtin_scenario("SX", steps=10)
    ens = bslq.synthesize_optimal(spec, bslq.BrownianEnsemble.generate(1, 5, spec.grid)).ensemble
    for name in ens.fields:
        assert ens[name] is ens[name]
    with pytest.raises(KeyError):
        ens["v"]


def test_forward_state_field_is_the_state():
    _, _, ens = forward_loop(paths=5)
    assert ens["X"] is ens.state
    assert list(ens.fields) == ["X", "v"]
