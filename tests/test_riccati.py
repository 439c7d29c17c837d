"""Riccati solves: closed forms, residuals, structure checks, failures,
and the float loops of scalar problems against the matrix kernels."""

import hashlib

import numpy as np
import pytest
from conftest import make_spec_2d
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import forward_riccati_derivative, sigma_derivative

import bslq
from bslq import riccati
from bslq.errors import IntegrationError, PositivityError, ReductionError, SingularityError
from bslq.grid import AffineProcess, MatrixPath, TimeGrid
from bslq.riccati import _derive_sigma_paths


def reduced(name, steps=200, **kw):
    return bslq.reduce_problem(bslq.builtin_scenario(name, steps=steps, **kw))


# -- shift equation ---------------------------------------------------------


def test_h_zero_when_g_and_q_vanish():
    h = bslq.solve_h(bslq.builtin_scenario("S1"))
    assert not np.any(h.H)          # exactly zero at every node


def test_h_closed_form_sh():
    spec = bslq.builtin_scenario("SH")
    h = bslq.solve_h(spec)
    t = spec.grid.nodes
    assert np.max(np.abs(h.H[:, 0, 0] + t)) < 1e-10
    assert h.residual(spec) < 1e-10


def test_h_with_nonzero_g():
    spec = bslq.builtin_scenario("SH")
    spec = spec.replace(G=np.array([[2.0]]))
    h = bslq.solve_h(spec)
    assert h.H[0, 0, 0] == -2.0     # anchor exact
    t = spec.grid.nodes
    assert np.max(np.abs(h.H[:, 0, 0] - (-2.0 - t))) < 1e-10


# -- backward Riccati equation ----------------------------------------------


@pytest.mark.parametrize("name", ["S1", "S4", "S5"])
def test_sigma_closed_form_linear(name):
    red = reduced(name)
    sol = bslq.solve_sigma(red)
    t = red.base.grid.nodes
    assert np.max(np.abs(sol.Sigma[:, 0, 0] - (1.0 - t))) < 1e-8
    assert sol.Sigma[-1, 0, 0] == 0.0


def test_r_of_sigma_closed_forms():
    t = bslq.builtin_scenario("S4").grid.nodes
    s4 = bslq.solve_sigma(reduced("S4"))
    np.testing.assert_allclose(s4.RofSigma[:, 0, 0], 2.0 - t, atol=1e-8)
    s5 = bslq.solve_sigma(reduced("S5"))
    np.testing.assert_allclose(s5.RofSigma[:, 0, 0], (1.0 + t) / 2.0, atol=1e-8)
    assert s5.conditioning > 1e-12  # invertible throughout


@pytest.mark.parametrize("name", ["S1", "S2", "S4", "S5", "SX", "SH"])
def test_sigma_residual_and_structure(name):
    red = reduced(name)
    sol = bslq.solve_sigma(red)
    assert sol.equation_residual(red.base) < 1e-6
    assert sol.psd_margin() >= -1e-10
    assert sol.symmetry_error() <= 1e-10
    assert sol.inverse_identity_error() <= 1e-10


def test_sigma_residual_order(spec_2d):
    # The finite-difference residual estimator drops by at least 4x per
    # grid doubling (it is higher order on smooth problems).
    res = {}
    for steps in (100, 200):
        red = bslq.reduce_problem(bslq.builtin_scenario("SH", steps=steps))
        res[steps] = bslq.solve_sigma(red).equation_residual(red.base)
    assert res[100] / res[200] >= 4.0


def test_sigma_grid_refinement_order():
    # Solve error itself decays at order >= 2 under grid refinement
    # (measured with one substep so truncation dominates rounding).
    sols = {}
    for steps in (8, 16, 32):
        red = bslq.reduce_problem(bslq.builtin_scenario("SH", steps=steps),
                                  substeps=1)
        sols[steps] = bslq.solve_sigma(red, substeps=1).Sigma[:, 0, 0]
    d1 = np.max(np.abs(sols[8] - sols[16][::2]))
    d2 = np.max(np.abs(sols[16] - sols[32][::2]))
    assert d1 / d2 >= 4.0


def test_sigma_requires_canonical_form():
    with pytest.raises(ValueError, match="canonical"):
        bslq.solve_sigma(bslq.builtin_scenario("SH"))


def test_r_of_sigma_singularity_detected():
    # R11 = -1 makes R(Sigma) = 1 - Sigma(t) hit zero at t = 0.
    spec = bslq.builtin_scenario("S4")
    spec = spec.replace(R11=MatrixPath.constant([[-1.0]], spec.grid))
    red = bslq.reduce_problem(spec)
    with pytest.raises(SingularityError, match="t="):
        bslq.solve_sigma(red)


def test_sigma_psd_violation_detected():
    spec = reduced("S1").base
    fake = np.zeros((spec.grid.steps + 1, 1, 1))
    fake[0, 0, 0] = -1e-6
    with pytest.raises(PositivityError, match="node"):
        _derive_sigma_paths(spec, fake)


def test_sigma_2d_structure(spec_2d):
    red = bslq.reduce_problem(spec_2d)
    sol = bslq.solve_sigma(red)
    assert sol.equation_residual(red.base) < 1e-6
    assert sol.psd_margin() >= -1e-10
    assert sol.inverse_identity_error() <= 1e-10


# -- forward Riccati equation ------------------------------------------------


def test_forward_riccati_closed_form():
    sf = bslq.builtin_scenario("SF")
    sol = bslq.solve_forward_riccati(sf)
    t = sf.grid.nodes
    assert np.max(np.abs(sol.P[:, 0, 0] - 1.0 / (2.0 - t))) < 1e-8
    np.testing.assert_array_equal(sol.P[-1], sf.cG)   # anchor exact
    assert sol.P[0, 0, 0] == pytest.approx(0.5, abs=1e-8)


def test_forward_riccati_zero_case():
    sf = bslq.builtin_scenario("SF")
    sf = sf.replace(cG=np.zeros((1, 1)))
    sol = bslq.solve_forward_riccati(sf)
    assert not np.any(sol.P)


def test_forward_weight_positivity_path():
    sf = bslq.builtin_scenario("SF")
    sf = sf.replace(cD=MatrixPath.constant([[1.0]], sf.grid))
    sol = bslq.solve_forward_riccati(sf)
    # weight = R + D^T P D = 1 + P > 1 along the whole path
    assert np.all(sol.min_eig_weight > 1.0)


def test_forward_weight_positivity_failure():
    sf = bslq.builtin_scenario("SF")
    sf = sf.replace(cR=MatrixPath.constant([[-1.0]], sf.grid))
    with pytest.raises(PositivityError):
        bslq.solve_forward_riccati(sf)


def test_uniform_convexity_conditions():
    sf = bslq.builtin_scenario("SF")
    # SF itself has Q = 0, so the Schur complement is only semidefinite.
    assert not bslq.uniform_convexity_conditions(sf)
    strict = sf.replace(cQ=MatrixPath.constant([[1.0]], sf.grid))
    assert bslq.uniform_convexity_conditions(strict)
    sol = bslq.solve_forward_riccati(strict)
    assert sol.psd_margin() >= -1e-10


# -- scalar problems: float loops against the matrix kernels ------------------


@st.composite
def scalar_paths(draw, grid, lo, hi):
    """A 1x1 coefficient path of any kind with values in [lo, hi]."""
    kind = draw(st.sampled_from(["constant", "piecewise", "sampled"]))
    if kind == "constant":
        return MatrixPath.constant([[draw(st.floats(lo, hi))]], grid)
    values = draw(st.lists(st.floats(lo, hi), min_size=grid.steps + 1,
                           max_size=grid.steps + 1))
    return getattr(MatrixPath, kind)(np.reshape(values, (-1, 1, 1)), grid)


@st.composite
def scalar_problems(draw):
    """Backward scalar problems with G, Q, R12 = R21, S1, S2 and R11 of
    either sign, and their RK4 substep count."""
    grid = TimeGrid(1.0, draw(st.integers(2, 12)))

    def path(lo, hi):
        return draw(scalar_paths(grid, lo, hi))

    cross = path(-0.5, 0.5)
    spec = bslq.builtin_scenario("S1", steps=grid.steps).replace(
        grid=grid, A=path(-1.0, 1.0), B=path(-2.0, 2.0), C=path(-1.0, 1.0),
        G=np.array([[draw(st.floats(-1.0, 1.0))]]), Q=path(-1.0, 1.0),
        S1=path(-1.0, 1.0), S2=path(-1.0, 1.0), R11=path(-1.0, 1.0),
        R12=cross, R21=cross, R22=path(0.2, 2.0))
    return spec, draw(st.integers(1, 3))


@st.composite
def scalar_forward_problems(draw, convex=False):
    """Forward scalar problems with nonzero cC, cD and cS.  ``convex`` draws
    data on which :func:`bslq.uniform_convexity_conditions` holds: cR, cG
    >= 0.2, |cS| <= 0.5 and cQ >= 1.3 > cS^2 / cR."""
    grid = TimeGrid(1.0, draw(st.integers(2, 12)))

    def path(lo, hi):
        return draw(scalar_paths(grid, lo, hi))

    spec = bslq.builtin_scenario("SF", steps=grid.steps).replace(
        grid=grid, cA=path(-1.0, 1.0), cB=path(-2.0, 2.0), cC=path(-1.0, 1.0),
        cD=path(-1.0, 1.0), cS=path(-0.5, 0.5) if convex else path(-1.0, 1.0),
        cQ=path(1.3, 2.0) if convex else path(-1.0, 2.0),
        cR=path(0.2 if convex else 0.0, 2.0),
        cG=np.array([[draw(st.floats(0.2 if convex else -1.0, 2.0))]]))
    return spec, draw(st.integers(1, 3))


def on_both_paths(solve):
    """``solve()`` on the float loops and with the selection forced to the
    matrix right-hand sides.  Each outcome is the raw bytes of every RK4
    result (kept even when a later check raises) and of every array
    ``solve`` returns, or the type and text of the error it raises."""
    def outcome(mp):
        loops = []

        def spy(*args, **kwargs):
            result = integrate(*args, **kwargs)
            loops.append([x.tobytes() for x in (result if kwargs.get("record") else [result])])
            return result

        mp.setattr(riccati, "integrate", spy)
        try:
            return loops, [np.asarray(x).tobytes() for x in solve()]
        except (IntegrationError, PositivityError, ReductionError,
                SingularityError) as exc:
            return loops, (type(exc), str(exc))

    integrate = riccati.integrate
    with pytest.MonkeyPatch.context() as mp:
        floats = outcome(mp)
        mp.setattr(riccati, "_on_floats", lambda spec: False)
        return floats, outcome(mp)


def backward_arrays(spec, substeps):
    red = bslq.reduce_problem(spec, substeps)
    sol = bslq.solve_sigma(red, substeps)
    return (bslq.solve_h(spec, substeps).H, red.h.H, sol.Sigma, sol.stages, sol.BofSigma,
            sol.CofSigma, sol.RofSigma, sol.RofSigmaInv, sol.conditioning)


def forward_arrays(spec, substeps):
    sol = bslq.solve_forward_riccati(spec, substeps)
    return sol.P, sol.stages, sol.gain, sol.min_eig_weight


def rhs_outcome(rhs, *args):
    """Raw bytes of a right-hand side value, or its singularity message."""
    try:
        return np.float64(rhs(*args)).tobytes()
    except SingularityError as exc:
        return str(exc)


signed = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(signed, min_size=12, max_size=12))
def test_float_right_hand_sides_equal_the_matrix_forms(values):
    # Zero signs included: each float operation must be the 1x1 matrix one.
    x, *coef = values
    mats = {k: np.array([[u]]) for k, u in zip(
        ("A", "B", "C", "D", "Q", "S", "R", "S1", "S2", "R11", "R22"), coef)}
    rows = {k: m[None] for k, m in mats.items()}   # the table of one evaluation
    t, X = np.array([0.5]), np.array([[x]])

    def builds(kernel, *tables):
        """The kernel's float build and its matrix build, evaluated at x."""
        return [rhs_outcome(kernel(ar, *tables), 0, y)
                for ar, y in ((riccati._FLOATS, x), (riccati._matrices(1), X))]

    floats, matrix = builds(riccati._h_rhs, rows["A"], rows["Q"])
    assert floats == matrix
    sigma = ("A", "B", "C", "S1", "S2", "R11", "R22")
    assert (builds(riccati._sigma_rhs, t, *(rows[k] for k in sigma))
            == [rhs_outcome(sigma_derivative, 0.5, X, *(mats[k] for k in sigma))] * 2)
    forward = ("A", "B", "C", "D", "Q", "S", "R")
    assert (builds(riccati._forward_rhs, t, *(rows[k] for k in forward))
            == [rhs_outcome(forward_riccati_derivative, 0.5, X,
                            *(mats[k] for k in forward))] * 2)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scalar_problems())
def test_scalar_backward_matches_matrix_kernels(problem):
    floats, matrix = on_both_paths(lambda: backward_arrays(*problem))
    assert floats == matrix


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scalar_forward_problems())
def test_scalar_forward_matches_matrix_kernels(problem):
    floats, matrix = on_both_paths(lambda: forward_arrays(*problem))
    assert floats == matrix


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scalar_forward_problems(convex=True))
def test_uniformly_convex_forward_data_give_psd_p(problem):
    spec, substeps = problem
    assert bslq.uniform_convexity_conditions(spec)
    sol = bslq.solve_forward_riccati(spec, substeps)   # no PositivityError
    assert np.min(sol.P) >= -riccati.PSD_TOL
    assert np.all(sol.min_eig_weight > 0.0)


def test_scalar_problems_take_the_float_loops(monkeypatch, spec_2d):
    states = []

    def spy(problem, state, *args, **kwargs):
        states.append(type(state))
        return integrate(problem, state, *args, **kwargs)

    integrate = riccati.integrate
    monkeypatch.setattr(riccati, "integrate", spy)
    for name in bslq.BUILTIN_NAMES:
        spec = bslq.builtin_scenario(name, steps=20)
        if name == "SF":
            bslq.solve_forward_riccati(spec)
        else:
            bslq.solve_sigma(bslq.reduce_problem(spec))
    assert states and set(states) == {float}
    states.clear()
    bslq.solve_sigma(bslq.reduce_problem(spec_2d))
    assert states and set(states) == {np.ndarray}


def forward_2x2(steps):
    """A 2x2 forward problem with nonzero cC, cD and cS."""
    grid = TimeGrid(1.0, steps)

    def mat(M):
        return MatrixPath.constant(np.array(M, dtype=float), grid)

    zero = AffineProcess.of_constants(np.zeros(2), np.zeros(2), grid)
    return bslq.ForwardProblemSpec(
        n=2, m=2, grid=grid,
        cA=mat([[0.1, 0.2], [-0.3, 0.0]]), cB=mat([[1.0, 0.1], [0.0, 0.8]]),
        cC=mat([[0.2, 0.0], [0.1, -0.1]]), cD=mat([[0.3, 0.1], [0.0, 0.2]]),
        b=zero, sigma=zero, cG=np.array([[0.5, 0.1], [0.1, 0.4]]), gTilde=np.zeros(2),
        cQ=mat([[1.0, 0.1], [0.1, 0.5]]), cS=mat([[0.1, 0.05], [0.0, 0.1]]),
        cR=mat([[1.0, 0.1], [0.1, 0.9]]), qTilde=zero, rhoTilde=zero, x0=np.zeros(2))


def test_riccati_paths_match_a_frozen_digest():
    # Taken from the matrix kernels: pins the float loops bitwise.  The 2x2
    # entries pin the matrix arithmetic itself.
    digests = {
        "S4": "d38cda106626c7398c2479832a0e09c1ec2d71ef6f32affb80e5942b119a2dce",
        "SX": "ef498f6d1f72603ae3c8f2592d3306abfe4c9ddd2d7107c8cf9efd65000361cd",
        "SH": "c11dc2d5d6cf10ac18017f186ce7e68dbf9024b3c8f5b950a20d45476adedd31",
        "SF": "44692423907516da11d48f15c37154f975387ba835be3c2607356b6cbd1a1211",
        "2x2": "dad75ff82b9b2d53053d0414ab50c250f6b838d92b5c43385ec90fc588740efb",
        "forward-2x2": "8310aabe08131b86a4c1841cea8ffd9d94a1c766faf67902113f7af55df5c12b",
    }
    specs = {"2x2": make_spec_2d(50), "forward-2x2": forward_2x2(50)}
    for name, digest in digests.items():
        spec = specs.get(name) or bslq.builtin_scenario(name, steps=50)
        if isinstance(spec, bslq.ForwardProblemSpec):
            sol = bslq.solve_forward_riccati(spec)
            arrays = (sol.P, sol.stages)
        else:
            red = bslq.reduce_problem(spec)
            sol = bslq.solve_sigma(red)
            arrays = (red.h.H, sol.Sigma, sol.stages)
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest


@pytest.mark.parametrize("solve, message", [
    (lambda: forward_arrays(bslq.builtin_scenario("SF").replace(
        cR=MatrixPath.constant([[0.0]], TimeGrid(1.0, 200))), 4),
     "R + D^T P D singular at t=1"),
    # Sigma = 1 - t is exact on this grid, so R(Sigma) = 1 - 2 Sigma is 0 at t = 0.5.
    (lambda: backward_arrays(bslq.builtin_scenario("S4", steps=8).replace(
        R11=MatrixPath.constant([[-2.0]], TimeGrid(1.0, 8))), 4),
     "R(Sigma) singular at t=0.5"),
], ids=["forward-weight", "r-of-sigma"])
def test_scalar_singularity_messages(solve, message):
    floats, matrix = on_both_paths(solve)
    assert floats == matrix
    assert floats[1] == (SingularityError, message)


def test_scalar_r22_singularity_message():
    # A zero R22 stops canonical_samples before the RK4 loop, so the R22
    # message of the Sigma kernel is reached through its float build.
    names = ("A", "B", "C", "S1", "S2", "R11", "R22")
    coef = dict(zip(names, (0.3, 1.0, 0.5, 0.0, 0.0, -2.0, 0.0)))
    rhs = riccati._sigma_rhs(riccati._FLOATS, np.array([0.25]),
                             *(np.array([[[coef[k]]]]) for k in names))
    with pytest.raises(SingularityError) as floats:
        rhs(0, 0.5)
    with pytest.raises(SingularityError) as matrix:
        sigma_derivative(0.25, np.array([[0.5]]),
                                 *(np.array([[coef[k]]]) for k in names))
    assert str(floats.value) == str(matrix.value) == "R22 singular at t=0.25"


@pytest.mark.parametrize("values, message", [
    ([[[0.0]]], "R22 singular at t=1"),
    # Sampled, zero at the node t = 0.5 only: the first stage time it hits.
    ([[[abs(k - 4) / 4]] for k in range(9)], "R22 singular at t=0.5"),
], ids=["constant", "sampled"])
def test_singular_r22_of_a_canonical_spec_is_a_singularity_error(values, message):
    spec = bslq.builtin_scenario("S4", steps=8)
    R22 = (MatrixPath.constant(values[0], spec.grid) if len(values) == 1
           else MatrixPath.sampled(values, spec.grid))
    with pytest.raises(SingularityError) as err:
        bslq.solve_sigma(spec.replace(R22=R22))
    assert str(err.value) == message
