"""Brownian ensembles, dual SDE simulation and pointwise synthesis."""

import numpy as np
import pytest

import bslq
from bslq.errors import SimulationError
from bslq.grid import TimeGrid
from bslq.simulate import _euler_loop


# -- Brownian ensembles -------------------------------------------------------


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
    dev, allowance = bw.mean_consistency()
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
    np.testing.assert_array_equal(synth.ensemble.X_dual,
                                  np.ones_like(synth.ensemble.X_dual))


def test_dual_sde_zero_case():
    spec, bw, synth = synthesize("S1")
    assert not np.any(synth.ensemble.X_dual)


def test_dual_sde_explicit_increments():
    # For xi = W(T) with R11 = 1 the dual diffusion is 1/(2 - t) and the
    # drift vanishes, so the Euler path is the running sum of the scaled
    # increments, bitwise up to summation rounding.
    spec, bw, synth = synthesize("S4", paths=100)
    t = spec.grid.nodes
    manual = np.zeros((100, len(t)))
    scale = 1.0 / (2.0 - t[:-1])
    manual[:, 1:] = np.cumsum(scale[None, :] * bw.increments, axis=1)
    np.testing.assert_allclose(synth.ensemble.X_dual[:, :, 0], manual, atol=1e-13)


def test_dual_sde_initial_condition():
    spec, bw, synth = synthesize("S2", paths=50)
    np.testing.assert_array_equal(synth.ensemble.X_dual[:, 0, 0],
                                  np.full(50, spec.g[0]))


# -- synthesis -----------------------------------------------------------------


def test_synthesis_s2():
    spec, bw, synth = synthesize("S2", paths=200)
    ens = synth.ensemble
    t = spec.grid.nodes
    np.testing.assert_allclose(ens.u, 1.0, atol=1e-12)
    np.testing.assert_allclose(ens.Y[:, :, 0], np.broadcast_to(t, ens.Y[:, :, 0].shape),
                               atol=1e-12)  # Y = c - 1 + t with c = 1
    assert not np.any(ens.Z)


def test_synthesis_s4():
    spec, bw, synth = synthesize("S4", paths=200)
    ens = synth.ensemble
    t = spec.grid.nodes
    np.testing.assert_allclose(ens.u, ens.X_dual, atol=1e-13)
    np.testing.assert_allclose(ens.Z[:, :, 0],
                               np.broadcast_to(1.0 / (2.0 - t), ens.Z[:, :, 0].shape),
                               atol=1e-12)


def test_synthesis_s1_all_zero():
    _, _, synth = synthesize("S1", paths=50)
    ens = synth.ensemble
    for arr in (ens.X, ens.X_dual, ens.u, ens.Y, ens.Z):
        assert not np.any(arr)


def test_terminal_hit_exact():
    for name in ("S2", "S4", "SX", "SH"):
        spec, bw, synth = synthesize(name, paths=100)
        xi = spec.xi.sample(bw.W)[:, -1, :]
        assert np.max(np.abs(synth.ensemble.Y[:, -1, :] - xi)) == 0.0


def test_initial_state_deterministic_across_paths():
    spec, bw, synth = synthesize("S4", paths=100)
    Y0 = synth.ensemble.Y[:, 0, 0]
    assert np.all(Y0 == Y0[0])


def test_adjoint_equals_dual_without_shift():
    # H = 0 for S4, so the adjoint state is the dual state bitwise.
    _, _, synth = synthesize("S4", paths=20)
    np.testing.assert_array_equal(synth.ensemble.X, synth.ensemble.X_dual)


def test_adjoint_differs_with_shift():
    spec, bw, synth = synthesize("SH", paths=20)
    ens = synth.ensemble
    assert np.any(ens.X != ens.X_dual)
    # X* = X - H Y with H(t) = -t
    t = spec.grid.nodes
    expected = ens.X_dual[:, :, 0] + t[None, :] * ens.Y[:, :, 0]
    np.testing.assert_allclose(ens.X[:, :, 0], expected, atol=1e-12)


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
    drift = (np.einsum("kij,pkj->pki", A, ens.Y[:, :N])
             + np.einsum("kij,pkj->pki", B, ens.u[:, :N])
             + np.einsum("kij,pkj->pki", C, ens.Z[:, :N]) + f)
    defect = (ens.Y[:, 1:] - ens.Y[:, :N] - drift * dt
              - ens.Z[:, :N] * bw.increments[:, :, None])
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
            (s_c.ensemble.X_dual[:, -1, 0] - s_f.ensemble.X_dual[:, -1, 0]) ** 2)))
    order = np.polyfit(np.log([50, 100, 200]), np.log(errs), 1)[0]
    assert -order >= 0.5


def test_blow_up_detection():
    grid = TimeGrid(1.0, 200)
    bw = bslq.BrownianEnsemble.generate(0, 4, grid)
    F = np.full((201, 1, 1), 1e4)       # Euler factor ~51 per step: overflows
    zeros = np.zeros((4, 201, 1))
    with pytest.raises(SimulationError, match="step"):
        with np.errstate(over="ignore", invalid="ignore"):
            _euler_loop(np.ones((4, 1)), (F, zeros), (0.0 * F, zeros), bw,
                        "test SDE")


# -- forward closed loop -------------------------------------------------------


def forward_loop(x0=1.0, paths=200, seed=11):
    sf = bslq.builtin_scenario("SF", x0=x0)
    psol = bslq.solve_forward_riccati(sf)
    adj = bslq.solve_eta_zeta(sf, psol)
    bw = bslq.BrownianEnsemble.generate(seed, paths, sf.grid)
    return sf, psol, bslq.simulate_forward_closed_loop(sf, psol, adj, bw)


def test_forward_loop_zero_start():
    _, _, ens = forward_loop(x0=0.0)
    assert not np.any(ens.X)
    assert not np.any(ens.v)


def test_forward_loop_closed_form():
    # Feedback v = -X/(2 - t) makes X(t) = (2 - t)/2 and v = -1/2; the
    # Euler recursion reproduces the linear-in-t solution exactly.
    sf, _, ens = forward_loop(x0=1.0)
    t = sf.grid.nodes
    np.testing.assert_allclose(ens.X[:, :, 0],
                               np.broadcast_to((2.0 - t) / 2.0, ens.X[:, :, 0].shape),
                               atol=1e-12)
    np.testing.assert_allclose(ens.v, -0.5, atol=1e-12)
