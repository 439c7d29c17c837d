"""Fixed-step RK4 integrator: anchors, accuracy, order, failure modes."""

import numpy as np
import pytest

from bslq.errors import IntegrationError
from bslq.grid import MatrixPath, TimeGrid
from bslq.ode import (OdeProblem, integrate, integrate_backward, integrate_forward,
                      integrate_linear, interior_derivative, rk4_stages)


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


def test_record_returns_stage_states():
    grid, sub = TimeGrid(1.0, 3), 2
    problem = OdeProblem(grid, lambda e, y: -y, "backward", sub)
    path, stages = integrate(problem, np.array([1.0]), record=True)
    assert stages.shape == (4 * 3 * sub, 1)
    # The first evaluation of each interval sees the state at its start node.
    np.testing.assert_array_equal(stages[::4 * sub], path[:0:-1])
    np.testing.assert_array_equal(path, integrate(problem, np.array([1.0])))
