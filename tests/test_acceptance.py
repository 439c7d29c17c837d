"""Acceptance suite: one test per acceptance criterion, at full scale.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output of a failure).  Monte-Carlo comparisons run at 10^4 paths
and 200 steps with seed 42; the discretization allowances below were
calibrated once by halving the step size on coupled Brownian paths
(allowance = 2 |est(dt) - est(dt/2)|, floored at 1e-4) and are frozen here.
"""

import time

import numpy as np
import pytest
from reference import apply_cross_substitution

import bslq
from bslq.grid import AffineProcess, MatrixPath, TimeGrid

SEED = 42
PATHS = 10_000
STEPS = 200

# Calibrated discretization allowances for |formula - MC| at the scale above.
C_DT = {"S2": 1e-4, "S4": 0.0038, "S5": 0.0038, "SX": 0.0027, "SH": 0.0026}

# Perturbation-defect allowance (same calibration procedure; the defect bias
# is O(dt) and was measured below 0.005 across 20 random perturbations).
C_DT_PERT = 0.01


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def full_scale(brownian_cache):
    """Synthesized optimum + cost/value reports at acceptance scale."""
    cache = {}

    def get(name):
        if name not in cache:
            spec = bslq.builtin_scenario(name, steps=STEPS)
            bw = brownian_cache(SEED, PATHS, STEPS)
            synth = bslq.synthesize_optimal(spec, bw)
            formula = bslq.value_formula(spec, synth.reduced, synth.sigma,
                                         synth.bsde)
            mc = bslq.evaluate_cost(spec, synth.ensemble)
            cache[name] = (spec, synth, formula, mc)
        return cache[name]

    return get


def test_criterion_1_riccati_correctness():
    for name in ("S1", "S4", "S5"):
        start = time.perf_counter()
        spec = bslq.builtin_scenario(name, steps=STEPS)
        red = bslq.reduce_problem(spec, substeps=4)
        sol = bslq.solve_sigma(red, substeps=4)
        elapsed = time.perf_counter() - start
        t = spec.grid.nodes
        closed_form_err = np.max(np.abs(sol.Sigma[:, 0, 0] - (1.0 - t)))
        residual = sol.equation_residual(red.base)
        assert closed_form_err <= 1e-8, name
        assert residual <= 1e-6, name
        assert sol.psd_margin() >= -1e-10, name
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
        _report("1 Riccati", f"{name}: |Sigma-(1-t)|={closed_form_err:.2e}, "
                             f"residual={residual:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_shift_equation_and_collapse(brownian_cache):
    spec = bslq.builtin_scenario("SH", steps=STEPS)
    h = bslq.solve_h(spec)
    t = spec.grid.nodes
    sh_err = np.max(np.abs(h.H[:, 0, 0] + t))
    assert sh_err <= 1e-10

    h0 = bslq.solve_h(bslq.builtin_scenario("S1", steps=STEPS))
    assert not np.any(h0.H)   # identically zero, bitwise

    # On the benchmarks already in canonical form, the general machinery
    # collapses to the plain one bitwise: the reduction is the identity,
    # the control map is the identity, and the adjoint equals the dual.
    bw = brownian_cache(SEED, 500, STEPS)
    for name in ("S1", "S2", "S4", "S5"):
        bench = bslq.builtin_scenario(name, steps=STEPS)
        red = bslq.reduce_problem(bench)
        assert not np.any(red.h.H), name
        assert red.constant_shift == 0.0, name
        for field in ("A", "B", "C", "S1", "S2", "R11", "R22"):
            np.testing.assert_array_equal(
                getattr(red.base, field).node_values(),
                getattr(bench, field).node_values(), err_msg=f"{name}.{field}")
        synth = bslq.synthesize_optimal(bench, bw)
        ens = synth.ensemble
        np.testing.assert_array_equal(ens["X"], ens.state, err_msg=name)
        v = apply_cross_substitution(red, ens["u"], ens["Z"])
        np.testing.assert_array_equal(v, ens["u"], err_msg=name)
    _report("2 shift equation", f"SH |H+t|={sh_err:.2e}; "
                                "S1-S5 collapse bitwise")


def test_criterion_3_value_agreement(full_scale):
    targets = {"S2": 1.0, "S4": np.log(2.0), "S5": -np.log(2.0)}
    for name, target in targets.items():
        start = time.perf_counter()
        spec, synth, formula, mc = full_scale(name)
        elapsed = time.perf_counter() - start
        assert formula == pytest.approx(target, abs=5e-6), name
        tol = 3.0 * mc.stderr + C_DT[name]
        gap = abs(formula - mc.estimate)
        assert gap <= tol, f"{name}: gap {gap:.4f} > tol {tol:.4f}"
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
        _report("3 value", f"{name}: formula={formula:.6f}, mc={mc.estimate:.6f} "
                           f"(stderr={mc.stderr:.1e}), gap={gap:.2e} <= {tol:.2e}")


def test_criterion_4_oracle_agreement(full_scale):
    start = time.perf_counter()
    for name in ("S2", "S4", "S5", "SX"):
        spec, synth, formula, _ = full_scale(name)
        comp = bslq.compare(formula, spec, steps=(4, 6, 8, 10))
        assert comp.monotone, name
        assert comp.extrapolated_gap <= 0.01, name
        if name == "S2":
            assert max(comp.gaps) <= 1e-12  # exact at every resolution
    for name in ("S1", "S2", "S4", "S5", "SX", "SH"):
        sol = bslq.solve_discrete(bslq.builtin_scenario(name), 6)
        assert sol.convex and sol.hessian_min_eig >= -1e-9, name
    flipped = bslq.builtin_scenario("S1")
    flipped = flipped.replace(R22=MatrixPath.constant([[-1.0]], flipped.grid))
    bad = bslq.solve_discrete(flipped, 6)
    assert not bad.convex and bad.hessian_min_eig < 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("4 oracle", f"monotone gaps, Richardson <= 0.01, Hessians PSD, "
                        f"nonconvex flip detected ({elapsed:.1f}s)")


def test_criterion_5_stationarity(full_scale, brownian_cache):
    worst = 0.0
    for name in ("S1", "S2", "S4", "S5", "SX", "SH"):
        if name in ("S2", "S4", "S5"):
            spec, synth, _, _ = full_scale(name)
        else:
            spec = bslq.builtin_scenario(name, steps=STEPS)
            synth = bslq.synthesize_optimal(spec,
                                            brownian_cache(SEED, 2000, STEPS))
        rep = bslq.stationarity_residual(spec, synth.ensemble)
        assert rep.sup <= 1e-10, f"{name}: {rep.sup:.2e}"
        worst = max(worst, rep.sup)
    _report("5 stationarity", f"sup residual over all benchmarks = {worst:.2e}")


def test_criterion_6_optimality_dominance(full_scale, brownian_cache):
    eps_grid = (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0)
    worst_defect = -np.inf
    worst_margin = np.inf
    for name in ("S4", "SX"):
        spec = bslq.builtin_scenario(name, steps=STEPS)
        synth = bslq.synthesize_optimal(spec, brownian_cache(SEED, 2000, STEPS))
        rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
        for _ in range(20):
            v = bslq.random_affine_control(spec.grid, spec.m, rng)
            rep = bslq.perturbation_identity(spec, synth.ensemble, v, eps_grid)
            for row in rep.rows:
                tol = 3.0 * row.defect_stderr + C_DT_PERT
                assert abs(row.defect) <= tol, (name, row.eps)
                assert row.cost_diff >= -tol, (name, row.eps)
                worst_defect = max(worst_defect, abs(row.defect) - tol)
                worst_margin = min(worst_margin, row.cost_diff + tol)
    _report("6 dominance", f"20 perturbations x 6 eps on S4, SX: "
                           f"max defect excess {worst_defect:.2e}, "
                           f"min margin {worst_margin:.2e}")


def test_criterion_7_forward_branch(brownian_cache):
    sf = bslq.builtin_scenario("SF", steps=STEPS, x0=1.0)
    psol = bslq.solve_forward_riccati(sf)
    t = sf.grid.nodes
    p_err = np.max(np.abs(psol.P[:, 0, 0] - 1.0 / (2.0 - t)))
    assert p_err <= 1e-8
    adj = bslq.solve_eta_zeta(sf, psol)
    ens = bslq.simulate_forward_closed_loop(sf, psol, adj,
                                            brownian_cache(SEED, PATHS, STEPS))
    rep = bslq.forward_value(sf, psol, adj, ens)
    assert rep.formula == pytest.approx(0.5, abs=1e-8)
    assert rep.gap <= 3.0 * rep.mc.stderr + 0.01
    # strictly convex data variant: P must come out positive semidefinite
    strict = sf.replace(cQ=MatrixPath.constant([[1.0]], sf.grid))
    assert bslq.uniform_convexity_conditions(strict)
    psol_strict = bslq.solve_forward_riccati(strict)
    assert psol_strict.psd_margin() >= -1e-10
    assert np.all(psol_strict.min_eig_weight > 0.0)
    _report("7 forward", f"|P - 1/(2-t)|={p_err:.2e}, value gap={rep.gap:.2e}, "
                         "P >= 0 under strict data")


def test_criterion_8_numerics_hygiene(brownian_cache):
    # RK4 order four on the exponential test
    from reference import integrate_forward
    grid = TimeGrid(1.0, 16)
    errs = [abs(integrate_forward(grid, lambda t, y: y, np.array([1.0]),
                                  substeps=s)[-1, 0] - np.e) for s in (4, 8)]
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0

    # Euler strong order >= 1/2 on coupled refinements
    fine = bslq.BrownianEnsemble.generate(202, 2000, TimeGrid(1.0, 400))
    rms = []
    for N in (50, 100, 200):
        c = bslq.synthesize_optimal(bslq.builtin_scenario("S4", steps=N),
                                    fine.coarsen(400 // N))
        f = bslq.synthesize_optimal(bslq.builtin_scenario("S4", steps=2 * N),
                                    fine.coarsen(400 // (2 * N)))
        rms.append(np.sqrt(np.mean(
            (c.ensemble.state[:, -1, 0] - f.ensemble.state[:, -1, 0]) ** 2)))
    order = -np.polyfit(np.log([50, 100, 200]), np.log(rms), 1)[0]
    assert order >= 0.5

    _report("8 numerics", f"RK4 ratio={ratio:.1f}, Euler order={order:.2f}")
