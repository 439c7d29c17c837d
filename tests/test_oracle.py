"""Binomial-tree brute force: exactness, convergence, convexity certification."""

import numpy as np
import pytest
from conftest import make_spec_2d
from dense_oracle import solve_dense
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import bslq
from bslq import oracle
from bslq.grid import AffineProcess, MatrixPath, TimeGrid
from bslq.oracle import BinomialTree


def test_single_step_hand_solution():
    # One control at the root: cost 2(c - u) + u^2, minimised at u = 1
    # with value 2c - 1.
    for c in (1.0, 2.0):
        spec = bslq.builtin_scenario("S2", c=c)
        sol = bslq.solve_discrete(spec, 1)
        assert sol.control[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.value == pytest.approx(2.0 * c - 1.0, abs=1e-12)


def test_zero_problem_any_depth():
    spec = bslq.builtin_scenario("S1")
    for N in (1, 4, 7):
        sol = bslq.solve_discrete(spec, N)
        assert sol.value == 0.0
        assert not np.any(sol.control)


def test_s2_exact_at_every_depth():
    # Drift-only dynamics with a constant optimal control: the tree value
    # equals the continuous one at every resolution.
    spec = bslq.builtin_scenario("S2")
    for N in (2, 5, 9):
        sol = bslq.solve_discrete(spec, N)
        assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_s4_convergence_measured():
    # Frozen measured gaps of the tree value against ln 2 (first order in
    # dt): 0.0434 at N=6 and 0.0256 at N=10.
    spec = bslq.builtin_scenario("S4")
    target = np.log(2.0)
    gap6 = abs(bslq.solve_discrete(spec, 6).value - target)
    gap10 = abs(bslq.solve_discrete(spec, 10).value - target)
    assert gap6 == pytest.approx(0.04340, abs=5e-4)
    assert gap6 <= 0.05
    assert gap10 == pytest.approx(0.02562, abs=5e-4)
    assert gap10 < gap6


@pytest.mark.parametrize("name", ["S2", "S4", "S5", "SX", "SH"])
def test_compare_converges_to_formula(name):
    spec = bslq.builtin_scenario(name)
    formula = bslq.solve_value(spec)[0]
    comp = bslq.compare(formula, spec)
    assert comp.monotone
    assert comp.extrapolated_gap <= 0.01


@pytest.mark.parametrize("name", ["S1", "S2", "S4", "S5", "SX", "SH"])
def test_hessian_psd_on_benchmarks(name):
    sol = bslq.solve_discrete(bslq.builtin_scenario(name), 6)
    assert sol.convex
    assert sol.hessian_min_eig >= -1e-9


def test_nonconvex_certificate():
    spec = bslq.builtin_scenario("S1")
    spec = spec.replace(R22=MatrixPath.constant([[-1.0]], spec.grid))
    sol = bslq.solve_discrete(spec, 5)
    assert not sol.convex
    assert sol.hessian_min_eig < 0.0
    assert sol.value is None and sol.control is None


def test_oracle_self_consistency():
    # Replaying the reported control through an independent numeric
    # recursion reproduces the quadratic-form value.
    for name in ("S4", "SX", "SH"):
        spec = bslq.builtin_scenario(name)
        sol = bslq.solve_discrete(spec, 7)
        replay = bslq.replay_cost(spec, 7, sol.control)
        assert abs(replay - sol.value) <= 1e-12 * max(1.0, abs(sol.value))


def test_discrete_stationarity():
    for name in ("S2", "S4", "SX"):
        sol = bslq.solve_discrete(bslq.builtin_scenario(name), 8)
        assert sol.gradient_norm <= 1e-10


def test_oracle_2d(spec_2d):
    # Full-featured 2x2 problem: convex tree, gradient at zero, and the
    # Richardson limit of the tree values confirms the closed-form value.
    formula = bslq.solve_value(spec_2d)[0]
    comp = bslq.compare(formula, spec_2d, steps=(4, 6, 8))
    assert comp.monotone
    assert comp.extrapolated_gap <= 0.01
    sol = bslq.solve_discrete(spec_2d, 6)
    assert sol.convex and sol.gradient_norm <= 1e-10


# ---------------------------------------------------------------------------
# compare's value path: no bisection, values bitwise those of solve_discrete
# ---------------------------------------------------------------------------


def _count_extremes(monkeypatch):
    calls = []
    extremes = oracle._Spectrum.extremes
    monkeypatch.setattr(oracle._Spectrum, "extremes",
                        lambda self: calls.append(1) or extremes(self))
    return calls


@pytest.mark.parametrize("name", ["S1", "S2", "S4", "S5", "SX", "SH", "2x2"])
def test_compare_values_are_solve_discrete_values(name, monkeypatch):
    # N = 1 is too coarse for the 2x2 fixture's coefficients.
    spec, ladder = ((make_spec_2d(100), range(2, 11)) if name == "2x2"
                    else (bslq.builtin_scenario(name), range(1, 11)))
    calls = _count_extremes(monkeypatch)
    comp = bslq.compare(0.0, spec, steps=ladder)
    assert calls == []
    assert comp.values == tuple(bslq.solve_discrete(spec, N).value for N in ladder)


def test_compare_singular_falls_back_bitwise(monkeypatch):
    # R22 = 0 makes Lam singular: the value path drops a pivot eigenvalue and
    # hands the resolution to solve_discrete.
    spec = bslq.builtin_scenario("S4")
    spec = spec.replace(R22=MatrixPath.constant([[0.0]], spec.grid))
    calls = _count_extremes(monkeypatch)
    comp = bslq.compare(0.25, spec, steps=(4, 6))
    assert len(calls) == 2
    assert comp.values == (bslq.solve_discrete(spec, 4).value,
                           bslq.solve_discrete(spec, 6).value)


def test_compare_flip_message():
    spec = bslq.builtin_scenario("S1")
    spec = spec.replace(R22=MatrixPath.constant([[-1.0]], spec.grid))
    with pytest.raises(bslq.ConvexityError) as info:
        bslq.compare(0.0, spec)
    assert str(info.value) == ("discrete problem at 4 steps is nonconvex "
                               "(hessian min eigenvalue -0.5)")


@pytest.mark.parametrize("steps", [(), (6,), (6, 6), (8, 6), (4, 8, 6)])
def test_compare_rejects_degenerate_ladder(steps):
    with pytest.raises(ValueError, match="two or more increasing step counts"):
        bslq.compare(0.0, bslq.builtin_scenario("S4"), steps=steps)


def test_preconditions_enforced():
    spec = bslq.builtin_scenario("S1")
    with pytest.raises(ValueError, match="capped"):
        bslq.solve_discrete(spec, 13)
    stiff = spec.replace(A=MatrixPath.constant([[10.0]], spec.grid))
    with pytest.raises(ValueError, match="coarse"):
        bslq.solve_discrete(stiff, 8)


def test_node_metadata():
    spec = bslq.builtin_scenario("S2")
    sol = bslq.solve_discrete(spec, 3)
    assert len(sol.nodes) == 2 ** 3 - 1
    root = min(sol.nodes, key=lambda nd: nd.index)
    assert root.level == 0 and root.w == 0.0
    # control indices are a permutation of the slot range
    assert sorted(nd.index for nd in sol.nodes) == list(range(7))


def test_depth_twelve(spec_2d):
    # The deepest tree: 8190 controls, solved without a dense Hessian.
    sol = bslq.solve_discrete(spec_2d, 12)
    assert sol.convex and not sol.singular
    assert sol.control.shape == (2 * (2 ** 12 - 1),)
    assert sol.gradient_norm <= 1e-10
    replay = bslq.replay_cost(spec_2d, 12, sol.control)
    assert abs(replay - sol.value) <= 1e-12 * max(1.0, abs(sol.value))


def test_singular_hessian_branch():
    # S4 with R22 = 0: the control enters the cost only through Z, so the
    # Hessian is singular and the optimum is not unique; the value is.
    spec = bslq.builtin_scenario("S4")
    spec = spec.replace(R22=MatrixPath.constant([[0.0]], spec.grid))
    sol = bslq.solve_discrete(spec, 4)
    assert sol.convex and sol.singular
    assert sol.value == pytest.approx(0.25, abs=1e-12)
    assert sol.gradient_norm <= 1e-10


# ---------------------------------------------------------------------------
# Cross-checks against the dense reference (tests/dense_oracle.py)
# ---------------------------------------------------------------------------


def _rank_deficient_spec() -> bslq.ProblemSpec:
    """n = 2, m = 1 with B = [[1], [0]]: the control reaches the second state
    component only through the coupling in A and C."""
    spec = make_spec_2d(50)
    grid = spec.grid

    def mat(M):
        return MatrixPath.constant(np.array(M, dtype=float), grid)

    return spec.replace(
        m=1, B=mat([[1.0], [0.0]]), S2=mat([[0.1, 0.05]]), R12=mat([[0.1], [0.0]]),
        R21=mat([[0.1, 0.0]]), R22=mat([[1.0]]),
        rho2=AffineProcess.of_constants([-0.05], [0.04], grid),
    )


def _dense_specs():
    specs = {name: bslq.builtin_scenario(name, steps=50)
             for name in ("S1", "S2", "S4", "S5", "SX", "SH")}
    specs["2x2"] = make_spec_2d(50)
    flip = specs["S1"]
    specs["flip"] = flip.replace(R22=MatrixPath.constant([[-1.0]], flip.grid))
    specs["n2m1"] = _rank_deficient_spec()
    return specs


DENSE_SPECS = _dense_specs()


@pytest.mark.parametrize("N", [2, 5, 8])
@pytest.mark.parametrize("name", list(DENSE_SPECS))
def test_structured_matches_dense(name, N):
    spec = DENSE_SPECS[name]
    sol = bslq.solve_discrete(spec, N)
    ref = solve_dense(spec, N)
    assert sol.convex == ref.convex
    assert sol.singular == ref.singular
    assert sol.negative_eigs == ref.negative_eigs
    assert abs(sol.hessian_min_eig - ref.hessian_min_eig) <= 1e-10 * max(1.0, ref.hessian_norm)
    if not ref.convex:
        assert sol.value is None and sol.control is None
        return
    assert abs(sol.value - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
    np.testing.assert_allclose(sol.control, ref.control, rtol=0, atol=1e-10)
    np.testing.assert_allclose(sol.y0, ref.y0, rtol=0, atol=1e-10)


def test_flip_negative_counts():
    flip = DENSE_SPECS["flip"]
    assert [bslq.solve_discrete(flip, N).negative_eigs for N in (3, 6, 8)] == [7, 63, 255]


@pytest.mark.parametrize("name", ["SX", "2x2", "flip", "n2m1"])
def test_shifted_counts_match_dense(name):
    # Eigenvalue counts of Lam at shifts between distinct dense eigenvalues.
    spec, N = DENSE_SPECS[name], 5
    lam = solve_dense(spec, N).eigenvalues / 2.0
    gaps = np.flatnonzero(np.diff(lam) > 1e-8 * max(1.0, np.max(np.abs(lam))))
    shifts = 0.5 * (lam[gaps] + lam[gaps + 1])
    levels = oracle._levels(spec, BinomialTree(N, spec.grid.T))
    spectrum = oracle._Spectrum(levels, spec.m, lam.size)
    assert spectrum.bound >= np.max(np.abs(lam))     # the bisection bracket
    np.testing.assert_array_equal(spectrum.below(shifts), gaps + 1)


@st.composite
def small_problems(draw):
    """Random n, m <= 2 scenarios with constant coefficients; R22 ranges
    from clearly indefinite to clearly definite."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    steps = draw(st.integers(2, 5))
    grid = TimeGrid(1.0, 20)

    def arr(shape, bound):
        size = int(np.prod(shape))
        vals = draw(st.lists(st.floats(-bound, bound), min_size=size, max_size=size))
        return np.array(vals).reshape(shape)

    def sym(k, bound):
        M = arr((k, k), bound)
        return 0.5 * (M + M.T)

    def mat(M):
        return MatrixPath.constant(M, grid)

    def aff(k):
        return AffineProcess.of_constants(arr((k,), 1.0), arr((k,), 1.0), grid)

    R12 = arr((n, m), 0.5)
    R22 = sym(m, 0.5) + draw(st.floats(-0.5, 2.0)) * np.eye(m)
    spec = bslq.ProblemSpec(
        n=n, m=m, grid=grid,
        A=mat(arr((n, n), 0.25)), B=mat(arr((n, m), 2.0)), C=mat(arr((n, n), 0.5)),
        f=aff(n), G=sym(n, 1.0), g=arr((n,), 1.0),
        Q=mat(sym(n, 1.0)), S1=mat(arr((n, n), 0.5)), S2=mat(arr((m, n), 0.5)),
        R11=mat(sym(n, 1.0)), R12=mat(R12), R21=mat(R12.T.copy()), R22=mat(R22),
        q=aff(n), rho1=aff(n), rho2=aff(m), xi=aff(n),
    )
    return spec, steps


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_problems())
def test_structured_matches_dense_property(problem):
    spec, N = problem
    ref = solve_dense(spec, N)
    scale = max(1.0, ref.hessian_norm)
    # Skip draws whose convexity is decided by rounding at the tolerance.
    assume(abs(ref.hessian_min_eig - oracle.NONCONVEX_TOL) > 1e-12 * scale)
    sol = bslq.solve_discrete(spec, N)
    assert sol.convex == ref.convex
    assert sol.negative_eigs == ref.negative_eigs
    assert abs(sol.hessian_min_eig - ref.hessian_min_eig) <= 1e-10 * scale
    if ref.convex and not ref.singular:
        assert abs(sol.value - ref.value) <= 1e-10 * max(1.0, abs(ref.value))


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_problems())
def test_tree_value_matches_solve_discrete_property(problem):
    spec, N = problem
    sol = bslq.solve_discrete(spec, N)
    if not sol.convex:
        with pytest.raises(bslq.ConvexityError, match="nonconvex"):
            oracle._tree_value(spec, N)
        return
    assert oracle._tree_value(spec, N) == sol.value
