"""The matrix arithmetic of the Riccati kernels (n >= 2 or m >= 2): solves
and products against numpy's own, frozen digests at shapes the 2x2 fixture
does not cover, guards that the RK4 loops bypass the ``np.linalg.solve``
wrapper and make checked solves only in the replay of a failed pass, and
properties of definite-case backward problems."""

import hashlib
import re
import warnings

import numpy as np
import pytest
from conftest import make_spec_2d
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_riccati import forward_2x2

import bslq
from bslq import riccati
from bslq.errors import IntegrationError, SingularityError
from bslq.grid import AffineProcess, MatrixPath, TimeGrid
from bslq.problem import _zeros


def _paths(grid):
    def mat(M):
        return MatrixPath.constant(np.array(M, dtype=float), grid)

    def aff(a, b):
        return AffineProcess.of_constants(np.array(a, dtype=float),
                                          np.array(b, dtype=float), grid)
    return mat, aff


def backward_2x1(steps):
    """A backward problem with n = 2, m = 1: cross weights, indefinite R11,
    a shift H and noise in every data slot."""
    grid = TimeGrid(1.0, steps)
    mat, aff = _paths(grid)
    return bslq.ProblemSpec(
        n=2, m=1, grid=grid,
        A=mat([[0.1, 0.3], [-0.2, 0.0]]), B=mat([[1.0], [0.4]]),
        C=mat([[0.2, -0.1], [0.1, 0.15]]), f=aff([0.1, 0.0], [0.0, 0.05]),
        G=np.array([[0.3, 0.1], [0.1, 0.2]]), g=np.array([0.2, -0.4]),
        Q=mat([[0.4, 0.05], [0.05, 0.3]]), S1=mat([[0.1, 0.02], [0.0, -0.05]]),
        S2=mat([[0.05, 0.1]]), R11=mat([[0.2, 0.05], [0.05, -0.1]]),
        R12=mat([[0.1], [0.05]]), R21=mat([[0.1, 0.05]]), R22=mat([[0.9]]),
        q=aff([0.05, 0.0], [0.0, 0.02]), rho1=aff([0.0, 0.1], [0.03, 0.0]),
        rho2=aff([-0.05], [0.04]), xi=aff([0.3, -0.2], [0.8, 0.4]),
    )


def backward_3x2(steps):
    """A backward problem with n = 3, m = 2, built like :func:`backward_2x1`."""
    grid = TimeGrid(1.0, steps)
    mat, aff = _paths(grid)
    R12 = np.array([[0.1, 0.0], [0.05, 0.1], [0.0, 0.05]])
    return bslq.ProblemSpec(
        n=3, m=2, grid=grid,
        A=mat([[0.0, 0.2, -0.1], [-0.2, 0.1, 0.0], [0.1, 0.0, -0.1]]),
        B=mat([[1.0, 0.0], [0.2, 0.9], [0.0, 0.3]]),
        C=mat([[0.1, 0.2, 0.0], [0.0, -0.1, 0.1], [0.05, 0.0, 0.2]]),
        f=aff([0.1, -0.2, 0.0], [0.05, 0.0, 0.1]),
        G=np.array([[0.2, 0.05, 0.0], [0.05, 0.1, 0.02], [0.0, 0.02, 0.3]]),
        g=np.array([0.5, -0.3, 0.1]),
        Q=mat([[0.3, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.25]]),
        S1=mat([[0.1, 0.0, 0.02], [0.05, -0.1, 0.0], [0.0, 0.03, 0.05]]),
        S2=mat([[0.1, 0.05, 0.0], [0.0, 0.1, -0.05]]),
        R11=mat([[0.3, 0.0, 0.05], [0.0, -0.15, 0.0], [0.05, 0.0, 0.2]]),
        R12=mat(R12), R21=mat(R12.T), R22=mat([[1.0, 0.1], [0.1, 0.8]]),
        q=aff([0.05, 0.1, 0.0], [0.0, 0.02, 0.01]),
        rho1=aff([0.1, 0.0, -0.05], [0.03, 0.0, 0.0]),
        rho2=aff([-0.05, 0.1], [0.0, 0.04]),
        xi=aff([0.2, -0.1, 0.3], [1.0, 0.5, -0.2]),
    )


def forward_2x1(steps):
    """A forward problem with n = 2, m = 1 and constant coefficients on
    which :func:`bslq.uniform_convexity_conditions` holds."""
    grid = TimeGrid(1.0, steps)
    mat, _ = _paths(grid)
    zero = AffineProcess.of_constants(np.zeros(2), np.zeros(2), grid)
    return bslq.ForwardProblemSpec(
        n=2, m=1, grid=grid,
        cA=mat([[0.1, 0.2], [-0.3, 0.0]]), cB=mat([[1.0], [0.3]]),
        cC=mat([[0.2, 0.0], [0.1, -0.1]]), cD=mat([[0.3], [0.1]]),
        b=zero, sigma=zero, cG=np.array([[0.5, 0.1], [0.1, 0.4]]), gTilde=np.zeros(2),
        cQ=mat([[1.0, 0.1], [0.1, 0.5]]), cS=mat([[0.1, 0.05]]), cR=mat([[0.8]]),
        qTilde=zero, rhoTilde=zero, x0=np.zeros(2))


# -- solves and products against numpy's own -----------------------------------


SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1e-308, 5e-324)
entries = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0))


@st.composite
def solve_operands(draw):
    """A square matrix of size 1-3, rank-deficient in some draws, and a
    right-hand side of 1-3 columns: the n x n and m x m solves of the
    kernels for n in {2, 3} and m in {1, 2, 3}."""
    k, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mat = np.array(draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k)
    if k > 1 and draw(st.booleans()):   # one row a multiple of another
        i, j = draw(st.permutations(range(k)))[:2]
        with np.errstate(all="ignore"):
            mat[j] = draw(st.sampled_from((0.0, -0.0, 1.0, -3.0))) * mat[i]
    rhs = np.array(draw(st.lists(entries, min_size=k * cols, max_size=k * cols)))
    return mat, rhs.reshape(k, cols)


def solve_outcome(solve):
    """The bytes and shape of a solve, or the message of its singularity."""
    try:
        x = solve()
    except SingularityError as exc:
        return str(exc)
    return x.shape, x.tobytes()


def reference_solve(mat, rhs):
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise SingularityError("M singular at t=0.5") from None


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(solve_operands())
def test_solve_matches_numpy_solve(operands):
    # Same bits, the same error, or the same non-finite array, and no warning.
    mat, rhs = operands
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_outcome(lambda: riccati._solve(mat, rhs, 0.5, "M"))
    assert got == solve_outcome(lambda: reference_solve(mat, rhs))


signed = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324)), st.floats(-2.0, 2.0))


@st.composite
def product_operands(draw):
    """(n, m), and a p x q . q x r product the H, Sigma or P kernel forms,
    for n and m in {1, 2, 3}, each operand C-ordered or a transpose (as the
    ``rows_t`` tables and ``T`` give them).  Entries include both zeros and
    the smallest subnormals, so that products round to a signed zero."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p, q, r = draw(st.sampled_from([(n, n, n), (n, n, m), (n, m, n), (m, n, n), (m, n, m)]))

    def operand(rows, cols):
        x = np.array(draw(st.lists(signed, min_size=rows * cols, max_size=rows * cols)))
        return x.reshape(rows, cols) if draw(st.booleans()) else x.reshape(cols, rows).T
    return (n, m), operand(p, q), operand(q, r)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(product_operands())
def test_products_match_matmul(operands):
    # Signed zeros included: a product with inner dimension 1 (n or m = 1)
    # is where ndarray.dot and matmul part.
    size, a, b = operands
    assert riccati._matrices(*size).mul(a, b).tobytes() == np.matmul(a, b).tobytes()


# -- frozen digests and the wrapper guard ---------------------------------------


def test_riccati_paths_match_frozen_digests_at_more_shapes():
    # Taken with np.matmul and np.linalg.solve in the kernels: pins the
    # direct gemm and gufunc calls to their bits.
    digests = {
        "2x1": (backward_2x1, "141359478bca875f54cf2899352d8c1f00dfe26d29818cce144f0e060c2c4071"),
        "3x2": (backward_3x2, "2125766a1ce8d2a91d31177d39da449cf13b8e042555da07ea61dec75ec99269"),
        "forward-2x1": (forward_2x1,
                        "c43594150cbf7efbf73fbb698ccdc45cd9f074316473cb5544823c3378117327"),
    }
    for name, (build, digest) in digests.items():
        spec = build(50)
        if isinstance(spec, bslq.ForwardProblemSpec):
            assert bslq.uniform_convexity_conditions(spec)
            sol = bslq.solve_forward_riccati(spec)
            arrays = (sol.P, sol.stages)
        else:
            red = bslq.reduce_problem(spec)
            assert np.any(red.h.H)
            sol = bslq.solve_sigma(red)
            arrays = (red.h.H, sol.Sigma, sol.stages)
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest, name


def test_rk4_loops_do_not_call_the_numpy_solve_wrapper(monkeypatch):
    calls = {"loops": 0, "outside": 0}
    state = {"in_loop": False}

    def solve_spy(*args):
        calls["loops" if state["in_loop"] else "outside"] += 1
        return solve(*args)

    def integrate_spy(*args, **kwargs):
        state["in_loop"] = True
        try:
            return integrate(*args, **kwargs)
        finally:
            state["in_loop"] = False

    solve, integrate = np.linalg.solve, riccati.integrate
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    monkeypatch.setattr(riccati, "integrate", integrate_spy)
    bslq.solve_sigma(bslq.reduce_problem(make_spec_2d(50)))
    bslq.solve_forward_riccati(forward_2x2(50))
    assert calls["loops"] == 0
    assert calls["outside"] > 0          # the spy sees the solves outside the loops
    # A singular solve in the loop goes back to np.linalg.solve for its error.
    spec = forward_2x2(50)
    singular = spec.replace(cR=MatrixPath.zeros((2, 2), spec.grid),
                            cD=MatrixPath.zeros((2, 2), spec.grid))
    with pytest.raises(SingularityError, match="R \\+ D\\^T P D singular at t=1"):
        bslq.solve_forward_riccati(singular)
    assert calls["loops"] == 1


def s4_2x2(**scales):
    """An n = m = 2 copy of S4 at 8 steps (B = R22 = R11 = I, xi = (0, W)),
    with the coefficients named in ``scales`` set to that multiple of I."""
    grid = TimeGrid(1.0, 8)

    def eye(scale):
        return MatrixPath.constant(scale * np.eye(2), grid)
    fields = _zeros(bslq.ProblemSpec, 2, 2, grid) | {
        "B": eye(1.0), "R22": eye(1.0), "R11": eye(1.0),
        "xi": AffineProcess.of_constants([0.0, 0.0], [1.0, 1.0], grid)}
    return bslq.ProblemSpec(n=2, m=2, grid=grid,
                            **(fields | {k: eye(v) for k, v in scales.items()}))


def spy_on_checked_solves(monkeypatch):
    """Calls of ``riccati._solve``, one count per RK4 pass (``integrate`` call)."""
    counts = []
    solve, integrate = riccati._solve, riccati.integrate

    def solve_spy(*args):
        counts[-1] += 1
        return solve(*args)

    def integrate_spy(*args, **kwargs):
        counts.append(0)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(riccati, "_solve", solve_spy)
    monkeypatch.setattr(riccati, "integrate", integrate_spy)
    return counts


def test_successful_matrix_passes_make_no_checked_solve(monkeypatch):
    # With checked solves in the loop, an 8-step 2x2 solve_sigma would call
    # _solve 256 times (two solves per evaluation, 4 evaluations, 4 substeps).
    counts = spy_on_checked_solves(monkeypatch)
    bslq.solve_h(make_spec_2d(8))
    bslq.solve_sigma(bslq.reduce_problem(make_spec_2d(8)))
    bslq.solve_sigma(bslq.reduce_problem(make_spec_2d(50)))
    bslq.solve_forward_riccati(forward_2x2(50))
    assert counts == [0] * 8   # solve_h 1, reduce_problem 1 and solve_sigma 2 each, P 1


@pytest.mark.parametrize("scales, error, message", [
    # Sigma = (1 - t) I, so R(Sigma) = I - 2 Sigma is singular at t = 0.5, as
    # in test_scalar_singularity_messages[r-of-sigma].
    ({"R11": -2.0}, SingularityError, "R(Sigma) singular at t=0.5"),
    ({"A": 400.0, "B": 1e150}, IntegrationError, "non-finite state at node 7 (t=0.875)"),
], ids=["r-of-sigma", "blow-up"])
def test_a_failed_matrix_pass_raises_from_its_checked_replay(monkeypatch, scales, error,
                                                             message):
    red = bslq.reduce_problem(s4_2x2(**scales))
    counts = spy_on_checked_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(message)):
            bslq.solve_sigma(red)
    # The H pass and the bare Sigma pass make no checked solve; the replay does.
    assert counts[:2] == [0, 0] and len(counts) == 3 and counts[2] > 0


# -- definite-case backward problems ---------------------------------------------


@st.composite
def definite_problems(draw, n, m):
    """A backward problem with 20 steps in the definite case: R22 positive
    definite, R11, G and Q positive semidefinite, no cross weights (S1, S2,
    R12, R21 zero).  The coefficients are constant or sampled at the
    nodes; also a seed."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, 20)

    def path(rows, cols, scale, psd=False, floor=0.0):
        k = 1 if draw(st.booleans()) else grid.steps + 1
        M = rng.uniform(-scale, scale, (k, rows, cols))
        if psd:   # M M^T scaled to entries of about ``scale``, plus floor I
            M = M @ np.swapaxes(M, -1, -2) / cols + floor * np.eye(rows)
        return (MatrixPath.constant(M[0], grid) if k == 1
                else MatrixPath.sampled(M, grid))

    def aff(k):
        return AffineProcess.of_constants(rng.uniform(-1, 1, k), rng.uniform(-1, 1, k), grid)

    G = rng.uniform(-1, 1, (n, n))
    return bslq.ProblemSpec(
        n=n, m=m, grid=grid, A=path(n, n, 1.0), B=path(n, m, 1.0), C=path(n, n, 1.0),
        f=aff(n), G=G @ G.T / n, g=rng.uniform(-1, 1, n), Q=path(n, n, 1.0, psd=True),
        S1=MatrixPath.zeros((n, n), grid), S2=MatrixPath.zeros((m, n), grid),
        R11=path(n, n, 1.0, psd=True), R12=MatrixPath.zeros((n, m), grid),
        R21=MatrixPath.zeros((m, n), grid), R22=path(m, m, 1.0, psd=True, floor=0.2),
        q=aff(n), rho1=aff(n), rho2=aff(m), xi=aff(n)), seed


@pytest.mark.parametrize("n, m", [(n, m) for n in (2, 3) for m in (1, 2, 3)])
@settings(max_examples=4, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_definite_backward_problems_give_psd_sigma_and_stationarity(n, m, data):
    spec, seed = data.draw(definite_problems(n, m))
    synth = bslq.synthesize_optimal(spec, bslq.BrownianEnsemble.generate(seed, 20, spec.grid))
    assert synth.sigma.psd_margin() >= -riccati.PSD_TOL   # no Positivity/SingularityError
    assert bslq.stationarity_residual(spec, synth.ensemble).sup <= 1e-10
