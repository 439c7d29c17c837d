"""Cross-term elimination and quadratic-weight shift."""

import numpy as np
import pytest
from reference import (apply_cross_substitution, cost_shift_identity_check,
                       sample_affine_control)

import bslq
from bslq.errors import ReductionError
from bslq.grid import AffineProcess, MatrixPath


def node_equal(a: MatrixPath, b: MatrixPath) -> bool:
    return np.array_equal(a.node_values(), b.node_values())


def test_reduce_identity_on_canonical_form():
    spec = bslq.builtin_scenario("S1")
    red = bslq.reduce_problem(spec)
    assert not np.any(red.h.H)
    assert red.constant_shift == 0.0
    for field in ("A", "B", "C", "S1", "S2", "R11", "R22"):
        assert node_equal(getattr(red.base, field), getattr(spec, field))
    assert not np.any(red.base.G)


@pytest.mark.parametrize("name", ["S1", "S2", "S4", "S5"])
def test_degeneration_bitwise(name):
    # Without G, Q and cross weights the shift machinery must collapse to
    # the identity transformation, bitwise.
    spec = bslq.builtin_scenario(name)
    red = bslq.reduce_problem(spec)
    assert not np.any(red.h.H)
    assert red.constant_shift == 0.0
    for field in ("A", "B", "C", "S1", "S2", "R11", "R22"):
        assert node_equal(getattr(red.base, field), getattr(spec, field))
    np.testing.assert_array_equal(red.base.q.a.node_values(),
                                  spec.q.a.node_values())
    np.testing.assert_array_equal(red.base.rho1.a.node_values(),
                                  spec.rho1.a.node_values())


def test_idempotence(spec_2d):
    red = bslq.reduce_problem(spec_2d)
    red2 = bslq.reduce_problem(red.base)
    for field in ("A", "B", "C", "S1", "S2", "R11", "R12", "R21", "R22"):
        assert node_equal(getattr(red2.base, field), getattr(red.base, field))
    assert red2.constant_shift == 0.0
    assert not np.any(red2.h.H)


def test_cross_elimination_sx():
    red = bslq.reduce_problem(bslq.builtin_scenario("SX"))
    # no shift (G = 0, Q = 0), so the base holds scriptC, scriptR11, scriptS1
    assert not np.any(red.h.H)
    assert red.base.C.node_values()[0, 0, 0] == pytest.approx(-0.5)
    assert red.base.R11.node_values()[0, 0, 0] == pytest.approx(0.75)
    assert red.base.S1.node_values()[0, 0, 0] == 0.0
    assert red.constant_shift == 0.0


@pytest.mark.parametrize("c,expected_shift", [(1.0, -1.0), (2.0, -4.0)])
def test_shift_sh(c, expected_shift):
    spec = bslq.builtin_scenario("SH", c=c)
    red = bslq.reduce_problem(spec)
    t = spec.grid.nodes
    # H(t) = -t, so R11 shifts to -t and the running Q weight is absorbed
    assert np.max(np.abs(red.base.R11.node_values()[:, 0, 0] + t)) < 1e-10
    assert red.base.Q.is_zero()
    assert red.base.q.a.is_zero() and red.base.q.b.is_zero()
    assert red.constant_shift == pytest.approx(expected_shift, abs=1e-10)


def test_shift_stochastic_terminal():
    # xi = a + b W(T): E<H(T) xi, xi> = H_T a^2 + T H_T b^2
    spec = bslq.builtin_scenario("SH")
    spec = spec.replace(xi=AffineProcess.of_constants([0.5], [2.0], spec.grid))
    red = bslq.reduce_problem(spec)
    expected = -1.0 * (0.25 + 1.0 * 4.0)
    assert red.constant_shift == pytest.approx(expected, abs=1e-10)


def test_r11h_symmetric(spec_2d):
    red = bslq.reduce_problem(spec_2d)
    r11h = red.base.R11.node_values()
    dev = np.max(np.abs(r11h - np.swapaxes(r11h, -1, -2)))
    assert dev <= 1e-10
    assert bslq.validate(red.base).ok


def test_reduce_rejects_indefinite_r22():
    spec = bslq.builtin_scenario("S1")
    bad = spec.replace(R22=MatrixPath.constant([[-1.0]], spec.grid))
    with pytest.raises(ReductionError, match="R22"):
        bslq.reduce_problem(bad)


def test_map_control_identity_without_cross_terms():
    spec = bslq.builtin_scenario("S4")
    red = bslq.reduce_problem(spec)
    v = np.ones((3, spec.grid.steps + 1, 1))
    Z = np.full((3, spec.grid.steps + 1, 1), 2.0)
    u = bslq.map_control(red, v, Z)
    np.testing.assert_array_equal(u, v)


def test_map_control_sx_values():
    red = bslq.reduce_problem(bslq.builtin_scenario("SX"))
    v = np.ones((1, red.base.grid.steps + 1, 1))
    Z = np.full_like(v, 2.0)
    u = bslq.map_control(red, v, Z)
    # u = v - R22^{-1} R21 Z = 1 - 0.5 * 2 = 0
    np.testing.assert_allclose(u, 0.0, atol=1e-15)


def test_map_control_round_trip(spec_2d):
    red = bslq.reduce_problem(spec_2d)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((5, spec_2d.grid.steps + 1, 2))
    Z = rng.standard_normal((5, spec_2d.grid.steps + 1, 2))
    u = bslq.map_control(red, v, Z)
    back = apply_cross_substitution(red, u, Z)
    np.testing.assert_allclose(back, v, atol=1e-12)


# -- cost identity J_orig(u) = J_red(v) - E<H(T) xi, xi> ----------------------


def constant_control(spec, value):
    return AffineProcess.of_constants([value] * spec.m, [0.0] * spec.m, spec.grid)


def test_shift_identity_s1_zero():
    spec = bslq.builtin_scenario("S1")
    red = bslq.reduce_problem(spec)
    bw = bslq.BrownianEnsemble.generate(3, 200, spec.grid)
    traj = sample_affine_control(spec, constant_control(spec, 0.0), bw)
    rep = cost_shift_identity_check(spec, red, traj)
    assert rep.residual == 0.0


def test_shift_identity_sh():
    spec = bslq.builtin_scenario("SH")
    red = bslq.reduce_problem(spec)
    bw = bslq.BrownianEnsemble.generate(5, 10000, spec.grid)
    traj = sample_affine_control(spec, constant_control(spec, 0.0), bw)
    rep = cost_shift_identity_check(spec, red, traj)
    assert rep.residual <= 0.02
    # J(xi; 0) for constant terminal c = 1 is exactly c^2
    assert rep.original == pytest.approx(1.0, abs=1e-12)
    assert rep.shift == pytest.approx(-1.0, abs=1e-10)


def test_shift_identity_sx():
    spec = bslq.builtin_scenario("SX")
    red = bslq.reduce_problem(spec)
    bw = bslq.BrownianEnsemble.generate(5, 10000, spec.grid)
    traj = sample_affine_control(spec, constant_control(spec, 1.0), bw)
    rep = cost_shift_identity_check(spec, red, traj)
    assert rep.residual <= 0.02
    assert rep.original == pytest.approx(3.0, abs=1e-12)


def test_shift_identity_general(spec_2d):
    # Full machinery: H-shift, cross terms and stochastic data at once.
    # The identity holds in continuous time; the measured residual is
    # O(dt) + noise (0.030 at N=100, 0.016 at N=200, 0.006 at N=400).
    red = bslq.reduce_problem(spec_2d)
    bw = bslq.BrownianEnsemble.generate(42, 20000, spec_2d.grid)
    rng = np.random.Generator(np.random.Philox(key=1))
    control = bslq.random_affine_control(spec_2d.grid, 2, rng)
    traj = sample_affine_control(spec_2d, control, bw)
    rep = cost_shift_identity_check(spec_2d, red, traj)
    assert rep.residual <= 3.0 * rep.stderr + 0.05
