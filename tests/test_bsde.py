"""Affine-ansatz BSDE solves: drifts, exactness, structure, adjoint pair."""

import hashlib
import sys

import numpy as np
import pytest
from conftest import make_spec_2d
from reference import integrate_backward, sigma_derivative

import bslq
from bslq import ode
from bslq.bsde import (BsdeDriftSpec, assemble_drift, solve_affine_bsde,
                       solve_controlled_state, solve_eta_zeta)
from bslq.grid import AffineProcess, MatrixPath, TimeGrid


def pipeline(name, steps=200, **kw):
    spec = bslq.builtin_scenario(name, steps=steps, **kw)
    red = bslq.reduce_problem(spec)
    sigma = bslq.solve_sigma(red)
    return spec, red, sigma


def test_drift_zero_for_s1_and_s4():
    for name in ("S1", "S4"):
        _, red, sigma = pipeline(name)
        drift = assemble_drift(red, sigma)
        assert not np.any(drift.M)
        assert not np.any(drift.N)
        assert not np.any(drift.r0) and not np.any(drift.r1)


def test_drift_sh_matches_hand_substitution():
    # For the shifted problem, M(t) = -B(Sigma) R22^{-1} S2H with
    # S2H(t) = B^T H(t) = -t, i.e. M(t) = t (1 - t Sigma(t)).
    spec, red, sigma = pipeline("SH")
    drift = assemble_drift(red, sigma)
    for t in (0.0, 0.5, 1.0):
        k = int(round(t / spec.grid.dt))
        expected = t * (1.0 - t * sigma.Sigma[k, 0, 0])
        assert drift.M[k, 0, 0] == pytest.approx(expected, abs=1e-12)


def test_drift_cross_form_self_check():
    # Nonzero rho1, rho2 exercise both assembled forms of the drift
    # constant; they must agree identically.
    spec = bslq.builtin_scenario("S4")
    spec = spec.replace(
        rho1=AffineProcess.of_constants([0.5], [0.2], spec.grid),
        rho2=AffineProcess.of_constants([-0.3], [0.1], spec.grid),
    )
    red = bslq.reduce_problem(spec)
    sigma = bslq.solve_sigma(red)
    drift = assemble_drift(red, sigma)
    assert drift.cross_form_gap <= 1e-10
    assert np.any(drift.r0)


def test_phi_constant_terminal():
    spec, red, sigma = pipeline("S2")
    drift = assemble_drift(red, sigma)
    sol = solve_affine_bsde(drift, spec.xi)
    a, b = sol.phi.node_parts()
    np.testing.assert_allclose(a[:, 0], 1.0, atol=1e-14)
    assert not np.any(b)
    assert not np.any(sol.beta.a.node_values()[:, 0])


def test_phi_brownian_terminal():
    # xi = W(T) with zero drift: phi(t) = W(t), beta = 1.
    spec, red, sigma = pipeline("S4")
    drift = assemble_drift(red, sigma)
    sol = solve_affine_bsde(drift, spec.xi)
    a, b = sol.phi.node_parts()
    assert not np.any(a)
    np.testing.assert_array_equal(b[:, 0], np.ones(spec.grid.steps + 1))
    np.testing.assert_array_equal(sol.beta.a.node_values(), b)


def test_zero_terminal_zero_data():
    spec, red, sigma = pipeline("S1")
    drift = assemble_drift(red, sigma)
    sol = solve_affine_bsde(drift, spec.xi)
    assert not np.any(sol.phi.a.node_values())
    assert not np.any(sol.phi.b.node_values())


def test_terminal_match_bitwise():
    spec, red, sigma = pipeline("SX")
    drift = assemble_drift(red, sigma)
    xi = AffineProcess.of_constants([0.3], [1.7], spec.grid)
    sol = solve_affine_bsde(drift, xi)
    a, b = sol.phi.node_parts()
    assert a[-1, 0] == 0.3 and b[-1, 0] == 1.7


def test_deterministic_data_gives_zero_beta():
    spec, red, sigma = pipeline("SH")   # xi = c, all data deterministic
    drift = assemble_drift(red, sigma)
    sol = solve_affine_bsde(drift, spec.xi)
    assert not np.any(sol.phi.b.node_values())
    assert not np.any(sol.beta.a.node_values())


@pytest.mark.parametrize("name", ["S2", "S4", "S5", "SX", "SH"])
def test_bsde_residual(name):
    spec, red, sigma = pipeline(name)
    drift = assemble_drift(red, sigma)
    sol = solve_affine_bsde(drift, spec.xi)
    assert sol.residual() <= 1e-6


def test_solution_linear_in_terminal():
    spec, red, sigma = pipeline("SX")
    drift = assemble_drift(red, sigma)
    xi1 = AffineProcess.of_constants([1.0], [0.5], spec.grid)
    xi2 = AffineProcess.of_constants([-0.2], [1.0], spec.grid)
    xi12 = AffineProcess.of_constants([0.8], [1.5], spec.grid)
    s1 = solve_affine_bsde(drift, xi1)
    s2 = solve_affine_bsde(drift, xi2)
    s12 = solve_affine_bsde(drift, xi12)
    np.testing.assert_allclose(
        s12.phi.a.node_values(),
        s1.phi.a.node_values() + s2.phi.a.node_values(), atol=1e-10)
    np.testing.assert_allclose(
        s12.phi.b.node_values(),
        s1.phi.b.node_values() + s2.phi.b.node_values(), atol=1e-10)


def test_generic_node_drift_solver():
    # A hand-built node-sampled drift without coupling: a' = -a, b' = 0
    # backward from (1, 0) gives a(t) = e^{T - t}.
    grid = TimeGrid(1.0, 64)
    eye = np.tile(np.eye(1), (65, 1, 1))
    nodes = (-eye, 0.0 * eye, np.zeros((65, 1)), np.zeros((65, 1)))
    evaluations = len(ode.rk4_stages(grid, "backward", ode.DEFAULT_SUBSTEPS)[1])
    stages = tuple(np.repeat(x[:1], evaluations, axis=0) for x in nodes)
    drift = BsdeDriftSpec(grid, *nodes, stages)
    sol = solve_affine_bsde(drift, AffineProcess.of_constants([1.0], [0.0], grid))
    a = sol.phi.a.node_values()[:, 0]
    np.testing.assert_allclose(a, np.exp(1.0 - grid.nodes), atol=1e-9)


@pytest.mark.parametrize("kind", ["piecewise", "sampled"])
def test_controlled_state_reads_each_path_by_its_rule(kind):
    # A piecewise-constant A jumps inside an interval of the RK4 pass; the
    # controlled state must see the jump where A(t) has it, as an RK4 pass
    # on A(t), B(t), u(t) and f(t) does.
    spec = bslq.builtin_scenario("S4", steps=20)
    grid = spec.grid
    if kind == "piecewise":
        A = MatrixPath.piecewise(np.where(grid.nodes < 0.5, 0.3, -0.7)[:, None, None], grid)
    else:
        A = MatrixPath.sampled(np.cos(3.0 * grid.nodes)[:, None, None], grid)
    spec = spec.replace(A=A, C=MatrixPath.constant([[0.4]], grid),
                        f=AffineProcess.of_constants([0.1], [-0.2], grid))
    v = AffineProcess.of_constants([0.5], [0.2], grid)
    sol = solve_controlled_state(spec, [v])[0]

    def rhs(t, y):
        a, b = y
        return np.stack([spec.A(t) @ a + spec.B(t) @ v.a(t) + spec.C(t) @ b + spec.f.a(t),
                         spec.A(t) @ b + spec.B(t) @ v.b(t) + spec.f.b(t)])

    ref = integrate_backward(grid, rhs, np.stack(spec.xi.at_terminal()))
    for got, want in zip(sol.phi.node_parts(), np.moveaxis(ref, 1, 0)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_martingale_representation_consistency():
    # phi(t) - phi(0) - int drift ds must reproduce int beta dW pathwise
    # within an O(dt) tolerance.
    spec, red, sigma = pipeline("SX")
    drift = assemble_drift(red, sigma)
    sol = solve_affine_bsde(drift, spec.xi)
    bw = bslq.BrownianEnsemble.generate(5, 300, spec.grid)
    phi = sol.phi.sample(bw.W)[:, :, 0]
    b = sol.phi.b.node_values()[:, 0]
    drift_pk = (np.einsum("kij,pkj->pki", drift.M, sol.phi.sample(bw.W))[:, :, 0]
                + np.einsum("kij,kj->ki", drift.N, sol.phi.b.node_values())[None, :, 0]
                + drift.r0[None, :, 0] + drift.r1[None, :, 0] * bw.W)
    dt = spec.grid.dt
    run = np.zeros_like(phi)
    run[:, 1:] = np.cumsum(drift_pk[:, :-1] * dt, axis=1)
    lhs = phi - phi[:, [0]] - run
    rhs = np.zeros_like(phi)
    rhs[:, 1:] = np.cumsum(b[:-1][None, :] * bw.increments, axis=1)
    gap = np.max(np.abs(lhs - rhs), axis=1)
    norm = np.maximum(1.0, np.max(np.abs(phi), axis=1))
    assert np.max(gap / norm) <= 5.0 * np.sqrt(dt)


# -- forward adjoint pair ----------------------------------------------------


def test_eta_zeta_zero_case():
    sf = bslq.builtin_scenario("SF")
    psol = bslq.solve_forward_riccati(sf)
    adj = solve_eta_zeta(sf, psol)
    assert not np.any(adj.phi.a.node_values())
    assert not np.any(adj.phi.b.node_values())


def test_eta_closed_form():
    # gTilde = 1 with SF data: eta' = P eta backward from 1, so
    # eta(t) = exp(-int_t^T P) = 1/(2 - t); checked against a quadrature
    # oracle built from the solved P path.
    sf = bslq.builtin_scenario("SF").replace(gTilde=np.array([1.0]))
    psol = bslq.solve_forward_riccati(sf)
    adj = solve_eta_zeta(sf, psol)
    t = sf.grid.nodes
    eta = adj.phi.a.node_values()[:, 0]
    assert eta[-1] == 1.0
    np.testing.assert_allclose(eta, 1.0 / (2.0 - t), atol=1e-8)
    P = psol.P[:, 0, 0]
    tail = np.array([np.trapezoid(P[k:], dx=sf.grid.dt) for k in range(len(t))])
    np.testing.assert_allclose(eta, np.exp(-tail), atol=1e-4)
    assert not np.any(adj.phi.b.node_values())  # zeta = 0: deterministic data


def test_eta_refinement_self_consistency():
    # Constant forcing qTilde = 1: no closed form needed, the solve must be
    # stable under substep refinement.
    sf = bslq.builtin_scenario("SF")
    sf = sf.replace(qTilde=AffineProcess.of_constants([1.0], [0.0], sf.grid))
    coarse = solve_eta_zeta(sf, bslq.solve_forward_riccati(sf, substeps=4))
    fine = solve_eta_zeta(sf, bslq.solve_forward_riccati(sf, substeps=8))
    diff = np.max(np.abs(coarse.phi.a.node_values() - fine.phi.a.node_values()))
    assert diff <= 1e-9


# -- stage tables and batched passes ------------------------------------------


def random_controls(spec, count, seed=11):
    rng = np.random.default_rng(seed)
    return [bslq.random_affine_control(spec.grid, spec.m, rng) for _ in range(count)]


@pytest.mark.parametrize("name", ["SX", "2x2"])
def test_batched_controlled_state_equals_single(name, spec_2d):
    spec = bslq.homogeneous(spec_2d if name == "2x2" else bslq.builtin_scenario(name, steps=50))
    controls = random_controls(spec, 5)
    batched = solve_controlled_state(spec, controls)
    for control, sol in zip(controls, batched):
        single = solve_controlled_state(spec, [control])[0]
        for x, y in zip(sol.phi.node_parts(), single.phi.node_parts()):
            assert np.array_equal(x, y)


def test_controlled_state_tabulates_per_kind_not_per_control(monkeypatch):
    # The controls of one kind are stacked into one path, tabulated once.
    spec = bslq.homogeneous(make_spec_2d(20))
    tabulate, calls = MatrixPath.tabulate, []
    monkeypatch.setattr(MatrixPath, "tabulate",
                        lambda self, times: calls.append(self) or tabulate(self, times))
    counts = []
    for K in (3, 16):
        calls.clear()
        solve_controlled_state(spec, random_controls(spec, K))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_controls_of_mixed_kinds_equal_their_single_solves():
    # Grouped by kind, each control still gets its own column, bitwise.
    spec = bslq.homogeneous(make_spec_2d(20))
    grid = spec.grid
    rng = np.random.default_rng(3)
    sampled = random_controls(spec, 2, seed=4)
    controls = [sampled[0],
                AffineProcess.of_constants([0.5, -0.2], [0.1, 0.3], grid),
                AffineProcess(MatrixPath.piecewise(rng.standard_normal((21, 2)), grid),
                              sampled[1].b),
                AffineProcess.deterministic(sampled[1].a)]
    batched = solve_controlled_state(spec, controls)
    for control, sol in zip(controls, batched):
        single = solve_controlled_state(spec, [control])[0]
        for x, y in zip(*((*s.phi.node_parts(), s.drift.r0, s.drift.r1, *s.drift.stages)
                          for s in (sol, single))):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("name", ["SX", "SH", "2x2"])
def test_sigma_one_pass_matches_reference(name, spec_2d):
    # Reference: the joint (H, Sigma) pass written against the source
    # paths' __call__, as a stage-by-stage right-hand side.
    spec = spec_2d if name == "2x2" else bslq.builtin_scenario(name, steps=60)
    red = bslq.reduce_problem(spec)

    def rhs(t, y):
        H, S = y[0], y[1]
        A, B, C, R22 = spec.A(t), spec.B(t), spec.C(t), spec.R22(t)
        R12, cross = spec.R12(t), np.linalg.solve(R22, spec.R21(t))
        script_c = C - B @ cross
        s1h = spec.S1(t) - R12 @ np.linalg.solve(R22, spec.S2(t)) + script_c.T @ H
        s2h = spec.S2(t) + B.T @ H
        r11h = spec.R11(t) - R12 @ cross + H
        return np.stack([-(H @ A + A.T @ H + spec.Q(t)),
                         sigma_derivative(t, S, A, B, script_c, s1h, s2h, r11h, R22)])

    anchor = np.stack([red.h.H[-1], np.zeros((spec.n, spec.n))])
    ref = integrate_backward(spec.grid, rhs, anchor,
                             post_step=lambda y: 0.5 * (y + np.swapaxes(y, -1, -2)))
    sigma = bslq.solve_sigma(red)
    assert np.array_equal(sigma.Sigma, ref[:, 1])
    assert np.array_equal(sigma.stages[::4 * 4, 1], ref[:0:-1, 1])  # interval starts


def test_no_path_calls_inside_rk4_loops(monkeypatch):
    loops = {ode.integrate.__code__, ode.integrate_linear.__code__}
    inside = []
    call = MatrixPath.__call__

    def counted(self, t):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in loops:
            frame = frame.f_back
        if frame is not None:
            inside.append(t)
        return call(self, t)

    monkeypatch.setattr(MatrixPath, "__call__", counted)
    grid = TimeGrid(1.0, 4)
    path = MatrixPath.sampled(np.ones((5, 1)), grid)
    integrate_backward(grid, lambda t, y: path(t), np.zeros(1))
    assert len(inside) == 4 * 4 * 4  # the counter sees calls from a loop
    inside.clear()
    bslq.solve_value(bslq.builtin_scenario("S4", steps=50))
    sf = bslq.builtin_scenario("SF", steps=50)
    solve_eta_zeta(sf, bslq.solve_forward_riccati(sf))
    assert inside == []


def test_substeps_follow_the_riccati_record(monkeypatch):
    # solve_affine_bsde and solve_eta_zeta take no substep count: each runs
    # at the count its Riccati solution was recorded with.
    seen = []
    real = bslq.bsde.integrate_linear
    monkeypatch.setattr(bslq.bsde, "integrate_linear",
                        lambda *args: seen.append(args[-1]) or real(*args))
    spec = bslq.builtin_scenario("SX", steps=20)
    red = bslq.reduce_problem(spec, substeps=3)
    solve_affine_bsde(assemble_drift(red, bslq.solve_sigma(red, substeps=3)), spec.xi)
    sf = bslq.builtin_scenario("SF", steps=20)
    solve_eta_zeta(sf, bslq.solve_forward_riccati(sf, substeps=5))
    assert seen == [3, 5]


def test_stage_tables_are_formed_once_per_riccati_pass(monkeypatch):
    # Stage 1 of the reduction runs at the nodes (reduce_problem) and at the
    # RK4 evaluations (solve_sigma); the BSDE drift reads the latter.
    calls = []
    real = bslq.reduction.canonical_samples
    monkeypatch.setattr(bslq.reduction, "canonical_samples",
                        lambda spec, times=None: calls.append(times) or real(spec, times))
    bslq.solve_value(bslq.builtin_scenario("SX", steps=20))
    assert [times is None for times in calls] == [True, False]

    # The adjoint BSDE reads cA ... cR from the forward Riccati record and
    # tabulates only its affine data, at the recorded evaluation times.
    sf = bslq.builtin_scenario("SF", steps=20)
    psol = bslq.solve_forward_riccati(sf)
    tabulated = []
    tabulate = MatrixPath.tabulate
    monkeypatch.setattr(MatrixPath, "tabulate",
                        lambda self, times: tabulated.append((self, times)) or tabulate(self, times))
    solve_eta_zeta(sf, psol)
    coefficients = {id(p) for p in (sf.cA, sf.cB, sf.cC, sf.cD, sf.cQ, sf.cS, sf.cR)}
    assert len(tabulated) == 8
    assert not any(id(path) in coefficients for path, _ in tabulated)
    assert all(times is psol.times for _, times in tabulated)


def test_canonical_spec_gets_the_exact_stage_drift(spec_2d):
    # A canonical spec is its own reduction: solved directly or through
    # reduce_problem, the BSDE reads the same stage drift, bit for bit.
    grid = spec_2d.grid
    spec = spec_2d.replace(G=np.zeros((2, 2)), Q=MatrixPath.zeros((2, 2), grid),
                           R12=MatrixPath.zeros((2, 2), grid),
                           R21=MatrixPath.zeros((2, 2), grid))
    direct = solve_affine_bsde(assemble_drift(spec, bslq.solve_sigma(spec)), spec.xi)
    red = bslq.reduce_problem(spec)
    routed = solve_affine_bsde(assemble_drift(red, bslq.solve_sigma(red)), spec.xi)
    for x, y in zip(direct.phi.node_parts(), routed.phi.node_parts()):
        assert np.array_equal(x, y)


def bsde_paths(name):
    """The integrate_linear outputs behind one BSDE solve, at 50 steps."""
    if name == "SF":
        spec = bslq.builtin_scenario(name, steps=50)
        sols = [solve_eta_zeta(spec, bslq.solve_forward_riccati(spec))]
    elif name == "S5-controlled":
        spec = bslq.builtin_scenario("S5", steps=50)
        sols = solve_controlled_state(spec, random_controls(spec, 16, seed=5))
    else:
        spec = make_spec_2d(50) if name == "2x2" else bslq.builtin_scenario(name, steps=50)
        red = bslq.reduce_problem(spec)
        sols = [solve_affine_bsde(assemble_drift(red, bslq.solve_sigma(red)), spec.xi)]
    return [x for sol in sols for x in sol.phi.node_parts()]


def test_bsde_paths_match_a_frozen_digest():
    # Taken before the n = 1 recursion ran on floats: pins it bitwise.
    digests = {
        "S4": "ae1fefd68fe7111c3cab7875c004616286c24f61b2e07308fe3b47cf39035667",
        "S5": "ae1fefd68fe7111c3cab7875c004616286c24f61b2e07308fe3b47cf39035667",
        "SX": "627e8f65891e4343d825128961860be4f152a3195f6996519d03f9447d7ba154",
        "SH": "867e4c48e74a1d380b951079ad1b32f0978e621f6cc1965d44375fc226838741",
        "2x2": "39ad5d63d8fbbe29581c2f7deb2f85c5750c4d2332cb4a2b60895bca8e044314",
        "SF": "0645a4a67dcec462dc9f335bb0564e6e39bf12ea7e40cf8de81418210102c2d1",
        "S5-controlled": "323d5b9847d7037952114c1b167dc2641b353149c5a6fdd35534987ce1fab033",
    }
    for name, digest in digests.items():
        paths = bsde_paths(name)
        assert hashlib.sha256(b"".join(x.tobytes() for x in paths)).hexdigest() == digest, name
