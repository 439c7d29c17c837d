"""Fixed-step RK4 integrator: anchors, accuracy, order, failure modes."""

import warnings

import numpy as np
import pytest
from reference import integrate_backward, integrate_forward, integrate_linear_by_halves

from bslq import ode
from bslq.errors import IntegrationError
from bslq.grid import MatrixPath, TimeGrid
from bslq.ode import OdeProblem, integrate, integrate_linear, interior_derivative, rk4_stages


def test_zero_rhs_constant():
    grid = TimeGrid(1.0, 10)
    path = integrate_forward(grid, lambda t, y: 0.0 * y, np.array([5.0]))
    np.testing.assert_array_equal(path, np.full((11, 1), 5.0))


def test_exponential_growth():
    # x' = x, x(0) = 1: x(1) = e within 1e-8 for >= 64 total steps.
    grid = TimeGrid(1.0, 16)
    path = integrate_forward(grid, lambda t, y: y, np.array([1.0]), substeps=4)
    assert abs(path[-1, 0] - np.e) < 1e-8


def test_backward_linear_exact():
    # y' = -1 with y(T) = 0 gives y(t) = 1 - t exactly: RK4 is exact on
    # polynomials of degree <= 3.
    grid = TimeGrid(1.0, 8)
    path = integrate_backward(grid, lambda t, y: np.array([-1.0]), np.array([0.0]))
    np.testing.assert_allclose(path[:, 0], 1.0 - grid.nodes, atol=1e-15)


def test_anchor_node_bitwise():
    grid = TimeGrid(1.0, 5)
    y0 = np.array([0.123456789])
    fwd = integrate_forward(grid, lambda t, y: y, y0)
    assert fwd[0, 0] == y0[0]
    back = integrate_backward(grid, lambda t, y: y, y0)
    assert back[-1, 0] == y0[0]


def test_order_four_convergence():
    # Halving the substep size cuts the terminal error of x' = x by a
    # factor of ~16; the contract is the window [14, 18].
    grid = TimeGrid(1.0, 16)
    errs = {}
    for sub in (4, 8):
        path = integrate_forward(grid, lambda t, y: y, np.array([1.0]), substeps=sub)
        errs[sub] = abs(path[-1, 0] - np.e)
    ratio = errs[4] / errs[8]
    assert 14.0 <= ratio <= 18.0


def test_time_reversal_consistency():
    grid = TimeGrid(1.0, 32)

    def rhs(t, y):
        return np.sin(3.0 * t) * y + 0.1

    fwd = integrate_forward(grid, rhs, np.array([1.0]))
    back = integrate_backward(grid, rhs, fwd[-1])
    assert abs(back[0, 0] - 1.0) < 1e-9


def test_matrix_state_shape():
    grid = TimeGrid(1.0, 4)
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    path = integrate_forward(grid, lambda t, Y: A @ Y, np.eye(2))
    assert path.shape == (5, 2, 2)
    # rotation matrices stay orthogonal
    last = path[-1]
    np.testing.assert_allclose(last @ last.T, np.eye(2), atol=1e-10)


def test_non_finite_failure_names_node():
    grid = TimeGrid(1.0, 10)

    def rhs(t, y):
        return y ** 3  # finite-time explosion well inside the horizon

    with pytest.raises(IntegrationError, match="node"):
        with np.errstate(over="ignore", invalid="ignore"):
            integrate_forward(grid, rhs, np.array([30.0]))


def test_ode_problem_validation():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        OdeProblem(grid, lambda t, y: y, direction="sideways")
    with pytest.raises(ValueError):
        OdeProblem(grid, lambda t, y: y, substeps=0)
    path = integrate(OdeProblem(grid, lambda t, y: 0 * y), np.array([1.0]))
    assert path.shape == (5, 1)


def test_interior_derivative_exact_on_cubics():
    grid = TimeGrid(1.0, 20)
    t = grid.nodes
    vals = (t ** 3 - 2 * t ** 2 + 0.5)[:, None]
    sl, d = interior_derivative(vals, grid.dt)
    expected = (3 * t ** 2 - 4 * t)[sl, None]
    np.testing.assert_allclose(d, expected, atol=1e-12)


@pytest.mark.parametrize("nodes", [1, 2])
def test_interior_derivative_needs_an_interior_node(nodes):
    with pytest.raises(ValueError, match="at least 3 nodes"):
        interior_derivative(np.zeros((nodes, 2)), 0.5)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("kind", ["constant", "piecewise", "sampled"])
def test_stage_table_matches_call_bitwise(kind, direction):
    grid = TimeGrid(1.3, 7)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((1 if kind == "constant" else 8, 2, 3))
    path = getattr(MatrixPath, kind)(values[0] if kind == "constant" else values, grid)
    times, index = rk4_stages(grid, direction, 3)
    assert len(np.unique(times)) == times.size == 2 * 7 * 3 + 1
    assert index.shape == (4 * 7 * 3,)
    table = path.tabulate(times)
    for t, row in zip(times, table):
        assert np.array_equal(row, path(t))


@pytest.mark.parametrize("substeps", [0, -2])
def test_stage_table_rejects_substeps_below_one(substeps):
    with pytest.raises(ValueError, match=f"substeps must be >= 1, got {substeps}"):
        rk4_stages(TimeGrid(1.0, 4), "backward", substeps)


def test_stage_times_are_the_integrator_times():
    grid = TimeGrid(1.0, 5)
    for direction, run in (("forward", integrate_forward), ("backward", integrate_backward)):
        seen = []
        run(grid, lambda t, y: seen.append(t) or 0.0 * y, np.array([1.0]), substeps=2)
        times, index = rk4_stages(grid, direction, 2)
        np.testing.assert_array_equal(seen, times[index])
        assert times[0] == grid.nodes[0 if direction == "forward" else -1]
        assert times[-1] == grid.nodes[-1 if direction == "forward" else 0]


def test_linear_kernel_matches_generic_rk4():
    # The batched affine-map form of RK4 against the stage-by-stage loop:
    # only the association of floating-point operations differs.
    grid, n, K, sub = TimeGrid(1.0, 6), 2, 3, 2
    rng = np.random.default_rng(7)
    E = 4 * grid.steps * sub
    M, N = rng.standard_normal((2, E, n, n))
    r0, r1 = rng.standard_normal((2, E, n, K))
    aT, bT = rng.standard_normal((2, n, K))

    def rhs(e, y):
        return np.stack([M[e] @ y[0] + N[e] @ y[1] + r0[e], M[e] @ y[1] + r1[e]])

    ref = integrate(OdeProblem(grid, rhs, "backward", sub), np.stack([aT, bT]))
    a, b = integrate_linear(grid, M, N, r0, r1, aT, bT, sub)
    assert np.array_equal(a[-1], aT) and np.array_equal(b[-1], bT)
    np.testing.assert_allclose(a, ref[:, 0], rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(b, ref[:, 1], rtol=1e-13, atol=1e-13)


def test_linear_blowup_is_one_integration_error_without_warnings():
    grid, sub = TimeGrid(1.0, 10), 4
    E = 4 * grid.steps * sub
    M, zero, one = np.full((E, 1, 1), -30000.0), np.zeros((E, 1, 1)), np.ones((1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # an overflow warning would escape as an error
        with pytest.raises(IntegrationError) as err:
            integrate_linear(grid, M, zero, zero, zero, one, one, sub)
    assert str(err.value) == "non-finite state at node 2 (t=0.2)"


def test_record_returns_stage_states():
    grid, sub = TimeGrid(1.0, 3), 2
    problem = OdeProblem(grid, lambda e, y: -y, "backward", sub)
    path, stages = integrate(problem, np.array([1.0]), record=True)
    assert stages.shape == (4 * 3 * sub, 1)
    # The first evaluation of each interval sees the state at its start node.
    np.testing.assert_array_equal(stages[::4 * sub], path[:0:-1])
    np.testing.assert_array_equal(path, integrate(problem, np.array([1.0])))


def signed_zero_draws(rng, shape):
    # Normal draws with a fifth each replaced by exact +0.0 and -0.0.
    u = rng.random(shape)
    return np.where(u < 0.2, 0.0, np.where(u < 0.4, -0.0, rng.standard_normal(shape)))


@pytest.mark.parametrize("sub", [1, 4])
@pytest.mark.parametrize("K", [1, 3, 16, 40])
def test_scalar_recursion_is_the_array_recursion_bitwise(K, sub):
    grid = TimeGrid(1.0, 6)
    rng = np.random.default_rng(10 * K + sub)
    E = 4 * grid.steps * sub
    M, N = signed_zero_draws(rng, (2, E, 1, 1))
    r0, r1 = signed_zero_draws(rng, (2, E, 1, K))
    aT, bT = signed_zero_draws(rng, (2, 1, K))
    # Column 0 has forcing +0.0, which the substep maps turn into ca = cb = -0.0
    # (h < 0), so from b(T) = -0.0 it stays at -0.0 only if every product keeps its sign.
    r0[..., 0] = r1[..., 0] = 0.0
    aT[0, 0] = bT[0, 0] = -0.0
    X, Y, ca, cb = ode._substep_maps(grid, M, N, r0, r1, sub)
    a, b = aT, bT
    ref_a, ref_b = [a], [b]
    for g in range(grid.steps * sub):   # the array recursion, on (1, K) arrays
        a, b = ode._apply(X[g], a) + ode._apply(Y[g], b) + ca[g], ode._apply(X[g], b) + cb[g]
        if (g + 1) % sub == 0:
            ref_a.append(a)
            ref_b.append(b)
    got_a, got_b = integrate_linear(grid, M, N, r0, r1, aT, bT, sub)
    assert got_a.tobytes() == np.stack(ref_a[::-1]).tobytes()
    assert got_b.tobytes() == np.stack(ref_b[::-1]).tobytes()


@pytest.mark.parametrize("K", [1, 3, 16])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_stacked_recursion_is_the_per_half_recursion_bitwise(n, K):
    grid, sub = TimeGrid(1.0, 6), 4
    rng = np.random.default_rng(100 * n + K)
    E = 4 * grid.steps * sub
    M, N = signed_zero_draws(rng, (2, E, n, n)) / n
    r0, r1 = signed_zero_draws(rng, (2, E, n, K))
    aT, bT = signed_zero_draws(rng, (2, n, K))
    r0[..., 0] = r1[..., 0] = 0.0   # a column with zero forcing
    r0[:, -1] = r1[:, -1] = 0.0     # and a zero forcing row
    aT[0, 0] = bT[0, 0] = -0.0
    got = integrate_linear(grid, M, N, r0, r1, aT, bT, sub)
    ref = integrate_linear_by_halves(grid, M, N, r0, r1, aT, bT, sub)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]


@pytest.mark.parametrize("n, K", [(1, 16), (2, 1), (3, 3)])
def test_stacked_recursion_fails_at_the_per_half_node(n, K):
    grid, sub = TimeGrid(1.0, 10), 4
    E = 4 * grid.steps * sub
    M, zero = np.full((E, n, n), -30000.0 / n), np.zeros((E, n, n))
    r, one = np.zeros((E, n, K)), np.ones((n, K))
    errors = []
    for solve in (integrate_linear, integrate_linear_by_halves):
        with pytest.raises(IntegrationError) as err:
            solve(grid, M, zero, r, r, one, one, sub)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "non-finite state at node 2 (t=0.2)"


def test_scalar_recursion_makes_no_array_call_per_step(monkeypatch):
    calls = []
    apply = ode._apply
    monkeypatch.setattr(ode, "_apply", lambda A, x: calls.append(x.shape) or apply(A, x))
    counts = []
    for steps in (5, 40):
        calls.clear()
        E = 4 * steps * 4
        M, r = np.full((E, 1, 1), -0.5), np.ones((E, 1, 3))
        integrate_linear(TimeGrid(1.0, steps), M, M, r, r, np.ones((1, 3)), np.ones((1, 3)))
        counts.append(len(calls))
    assert counts[0] == counts[1]
