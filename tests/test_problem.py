"""Problem data: grids, paths, validation, builtins and scenario files."""

import dataclasses
import json

import numpy as np
import pytest

import bslq
from bslq.errors import ScenarioError, SpecValidationError
from bslq.grid import AffineProcess, MatrixPath, TimeGrid


def test_time_grid_nodes():
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    np.testing.assert_array_equal(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == grid.T


def test_time_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_time_grid_rejects_a_subnormal_step():
    # T = 5e-324 over 2 steps gives dt = 0; 1e-300 over 1e9 a subnormal dt.
    for T, steps in ((5e-324, 2), (1e-300, 10 ** 9)):
        with pytest.raises(ValueError, match=f"T = {T}, steps = {steps}"):
            TimeGrid(T, steps)
    assert TimeGrid(1e-300, 10).dt == 1e-301


def test_matrix_path_kinds():
    grid = TimeGrid(1.0, 4)
    const = MatrixPath.constant([[2.0]], grid)
    assert const(0.3)[0, 0] == 2.0
    assert const.node_values().shape == (5, 1, 1)

    vals = np.arange(5, dtype=float).reshape(5, 1, 1)
    pw = MatrixPath.piecewise(vals, grid)
    assert pw(0.3)[0, 0] == 1.0      # left hold on [0.25, 0.5)
    assert pw(1.0)[0, 0] == 4.0
    lin = MatrixPath.sampled(vals, grid)
    assert lin(0.375)[0, 0] == pytest.approx(1.5)
    assert lin(0.5)[0, 0] == 2.0     # node values exact


def test_piecewise_path_reads_its_own_node():
    # A node time reads its own interval on every grid, though t / dt rounds
    # below the node's index at 153 of the grids N = 1..200 with T = 1.
    path = MatrixPath.piecewise(np.arange(10.0)[:, None, None], TimeGrid(1.0, 9))
    assert path(path.grid.nodes[7])[0, 0] == 7.0
    for N in range(1, 201):
        grid = TimeGrid(1.0, N)
        path = MatrixPath.piecewise(np.arange(N + 1.0)[:, None], grid)
        table = path.tabulate(np.concatenate([grid.nodes, [-0.5, 1.5]]))[:, 0]
        assert np.array_equal(table, np.r_[np.arange(N + 1.0), 0.0, N])
        assert [path(t)[0] for t in grid.nodes] == list(range(N + 1))
        mid = path.tabulate(grid.nodes[:-1] + 0.5 * grid.dt)[:, 0]
        assert np.array_equal(mid, np.arange(N + 0.0))


def test_resample_keeps_piecewise_jumps_in_place():
    # Jumps at t = 0.3 and 0.6 on a 10-step grid fall on fine nodes 60 and
    # 120 of 200 steps, not one step late.
    grid = TimeGrid(1.0, 10)
    values = np.repeat([0.0, 1.0, 2.0], [3, 3, 5])[:, None, None]
    spec = bslq.builtin_scenario("S4", steps=10).replace(A=MatrixPath.piecewise(values, grid))
    fine = bslq.resample(spec, 200).A
    assert fine.kind == "piecewise-constant"
    assert np.array_equal(fine.node_values()[:, 0, 0], np.repeat([0.0, 1.0, 2.0], [60, 60, 81]))


def test_affine_process_sampling():
    grid = TimeGrid(1.0, 2)
    proc = AffineProcess.of_constants([1.0], [2.0], grid)
    W = np.array([[0.0, 0.5, -1.0]])
    vals = proc.sample(W)
    np.testing.assert_allclose(vals[0, :, 0], [1.0, 2.0, -1.0])
    aT, bT = proc.at_terminal()
    assert aT[0] == 1.0 and bT[0] == 2.0


def test_validate_s1_empty():
    report = bslq.validate(bslq.builtin_scenario("S1"))
    assert report.ok
    assert report.violations == []


def test_validate_cross_block_asymmetry():
    spec = bslq.builtin_scenario("S1")
    bad = spec.replace(R12=MatrixPath.constant([[1.0]], spec.grid))
    report = bslq.validate(bad)
    assert len(report.violations) == 1
    assert "R12" in report.violations[0] and "R21" in report.violations[0]
    assert "t=0" in report.violations[0]


def test_validate_nonfinite_sample():
    spec = bslq.builtin_scenario("S1")
    bad = spec.replace(Q=MatrixPath.constant([[np.nan]], spec.grid))
    report = bslq.validate(bad)
    assert any("non-finite" in v and "Q" in v for v in report.violations)


def test_validate_shape_mismatch():
    spec = bslq.builtin_scenario("S1")
    bad = spec.replace(S2=MatrixPath.constant(np.zeros((2, 1)), spec.grid))
    report = bslq.validate(bad)
    assert any("S2" in v and "shape" in v for v in report.violations)


def test_validate_is_pure():
    spec = bslq.builtin_scenario("S1").replace(
        R12=MatrixPath.constant([[1.0]], bslq.builtin_scenario("S1").grid))
    first = bslq.validate(spec)
    second = bslq.validate(spec)
    assert first.violations == second.violations


@pytest.mark.parametrize("name", bslq.BUILTIN_NAMES)
def test_builtins_resolvable(name):
    spec = bslq.load_scenario(f"builtin:{name}")
    if name == "SF":
        assert isinstance(spec, bslq.ForwardProblemSpec)
    else:
        assert isinstance(spec, bslq.ProblemSpec)
        assert bslq.validate(spec).ok


def test_builtin_unknown():
    with pytest.raises(ScenarioError):
        bslq.load_scenario("builtin:S99")


def test_builtin_values():
    s2 = bslq.builtin_scenario("S2", c=2.0)
    assert s2.g[0] == 1.0
    aT, bT = s2.xi.at_terminal()
    assert aT[0] == 2.0 and bT[0] == 0.0
    s4 = bslq.builtin_scenario("S4")
    aT, bT = s4.xi.at_terminal()
    assert aT[0] == 0.0 and bT[0] == 1.0
    sf = bslq.builtin_scenario("SF", x0=2.0)
    assert sf.x0[0] == 2.0


def test_scenario_round_trip(tmp_path, spec_2d):
    path = tmp_path / "scenario.json"
    bslq.save_scenario(spec_2d, str(path))
    loaded = bslq.load_scenario(str(path))
    np.testing.assert_array_equal(loaded.A.node_values(), spec_2d.A.node_values())
    np.testing.assert_array_equal(loaded.G, spec_2d.G)
    np.testing.assert_array_equal(loaded.xi.b.node_values(),
                                  spec_2d.xi.b.node_values())
    # a second save parses back to bitwise-identical samples
    path2 = tmp_path / "again.json"
    bslq.save_scenario(loaded, str(path2))
    again = bslq.load_scenario(str(path2))
    np.testing.assert_array_equal(again.R12.node_values(),
                                  loaded.R12.node_values())


def test_scenario_round_trip_sampled_path(tmp_path):
    spec = bslq.builtin_scenario("S4", steps=8)
    vals = np.linspace(0.0, 1.0, 9).reshape(9, 1, 1)
    spec = spec.replace(Q=MatrixPath.sampled(vals, spec.grid))
    path = tmp_path / "sampled.json"
    bslq.save_scenario(spec, str(path))
    loaded = bslq.load_scenario(str(path))
    np.testing.assert_array_equal(loaded.Q.node_values(), vals)


def test_scenario_round_trip_piecewise_path(tmp_path):
    # The kind of a node-valued path survives the file: a piecewise A
    # reloaded as grid-sampled would interpolate and change the value.
    spec = bslq.builtin_scenario("S4", steps=10)
    values = np.where(spec.grid.nodes < 0.5, 0.5, -0.5).reshape(11, 1, 1)
    spec = spec.replace(A=MatrixPath.piecewise(values, spec.grid))
    path = tmp_path / "piecewise.json"
    bslq.save_scenario(spec, str(path))
    loaded = bslq.load_scenario(str(path))
    assert loaded.A.kind == spec.A.kind == "piecewise-constant"
    np.testing.assert_array_equal(loaded.A.node_values(), values)
    assert bslq.solve_value(loaded)[0] == bslq.solve_value(spec)[0]


def test_scenario_entry_kind_defaults_and_is_checked(tmp_path):
    spec = bslq.builtin_scenario("S4", steps=4)
    doc = bslq.scenario_document(spec.replace(
        Q=MatrixPath.sampled(np.ones((5, 1, 1)), spec.grid)))
    assert "kind" not in doc["Q"]
    doc["Q"]["kind"] = "spline"
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="Q: kind must be"):
        bslq.load_scenario(str(path))


def test_scenario_missing_field(tmp_path):
    spec = bslq.builtin_scenario("S1", steps=4)
    doc = bslq.scenario_document(spec)
    del doc["R22"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="R22"):
        bslq.load_scenario(str(path))


def test_scenario_unknown_key(tmp_path):
    doc = bslq.scenario_document(bslq.builtin_scenario("S1", steps=4))
    doc["extra"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="extra"):
        bslq.load_scenario(str(path))


def test_scenario_invalid_spec_reports(tmp_path):
    doc = bslq.scenario_document(bslq.builtin_scenario("S1", steps=4))
    doc["R12"] = 1.0  # breaks R12 = R21^T
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecValidationError) as err:
        bslq.load_scenario(str(path))
    assert any("R12" in v for v in err.value.report.violations)


def test_forward_scenario_file(tmp_path):
    sf = bslq.builtin_scenario("SF", steps=10)
    path = tmp_path / "sf.json"
    bslq.save_scenario(sf, str(path))
    loaded = bslq.load_scenario(str(path))
    assert isinstance(loaded, bslq.ForwardProblemSpec)
    np.testing.assert_array_equal(loaded.cG, sf.cG)
    np.testing.assert_array_equal(loaded.x0, sf.x0)


def test_homogeneous_zeroes_data_only():
    spec = bslq.builtin_scenario("S2")
    h = bslq.homogeneous(spec)
    assert h.xi.a.is_zero() and h.xi.b.is_zero()
    assert not np.any(h.g)
    # weights survive
    assert h.R22.node_values()[0, 0, 0] == 1.0


def test_homogeneous_builds_only_the_data(monkeypatch):
    # Six zero coefficients are built (f, g, q, rho1, rho2, xi); the weights
    # and the state coefficients are the spec's own objects.
    spec = bslq.builtin_scenario("SX", steps=20)
    made = []
    for form, zero in list(bslq.problem._ZERO.items()):
        monkeypatch.setitem(bslq.problem._ZERO, form, lambda shape, grid, zero=zero:
                            made.append(shape) or zero(shape, grid))
    h = bslq.homogeneous(spec)
    assert len(made) == 6
    assert all(getattr(h, name) is getattr(spec, name) for name in
               ("A", "B", "C", "G", "Q", "S1", "S2", "R11", "R12", "R21", "R22"))


def test_resample_keeps_constants_exact():
    spec = bslq.builtin_scenario("S4", steps=200)
    re = bslq.resample(spec, 50)
    assert re.grid.steps == 50
    assert re.R11.node_values()[0, 0, 0] == 1.0
    aT, bT = re.xi.at_terminal()
    assert bT[0] == 1.0


# Every coefficient's shape at n = 3, m = 2 (n != m tells the two apart),
# read off the state equations and the costs.
SHAPES_3X2 = {
    "A": (3, 3), "B": (3, 2), "C": (3, 3), "f": (3,), "G": (3, 3), "g": (3,),
    "Q": (3, 3), "S1": (3, 3), "S2": (2, 3), "R11": (3, 3), "R12": (3, 2),
    "R21": (2, 3), "R22": (2, 2), "q": (3,), "rho1": (3,), "rho2": (2,), "xi": (3,),
    "cA": (3, 3), "cB": (3, 2), "cC": (3, 3), "cD": (3, 2), "b": (3,), "sigma": (3,),
    "cG": (3, 3), "gTilde": (3,), "cQ": (3, 3), "cS": (2, 3), "cR": (2, 2),
    "qTilde": (3,), "rhoTilde": (2,), "x0": (3,),
}
KINDS = (bslq.ProblemSpec, bslq.ForwardProblemSpec)
COEFFICIENTS = [(kind, f.name) for kind in KINDS for f in dataclasses.fields(kind)
                if f.name not in ("n", "m", "grid")]


def zero_spec_3x2(kind):
    """A valid n = 3, m = 2 problem of the given kind with every coefficient
    zero, built from SHAPES_3X2; forms are taken from the scalar builtins."""
    grid = TimeGrid(1.0, 4)
    forms = bslq.builtin_scenario("S1" if kind is bslq.ProblemSpec else "SF", steps=4)

    def zero(name):
        shape, form = SHAPES_3X2[name], type(getattr(forms, name))
        return (MatrixPath.zeros(shape, grid) if form is MatrixPath
                else AffineProcess.zero(shape, grid) if form is AffineProcess
                else np.zeros(shape))

    return kind(n=3, m=2, grid=grid,
                **{name: zero(name) for k, name in COEFFICIENTS if k is kind})


def test_every_coefficient_declares_its_shape():
    for kind in KINDS:
        for f in dataclasses.fields(kind):
            if f.name not in ("n", "m", "grid"):
                declared = tuple({"n": 3, "m": 2}[s] for s in f.metadata["shape"])
                assert declared == SHAPES_3X2[f.name], f.name
    assert len(COEFFICIENTS) == len(SHAPES_3X2)
    for kind in KINDS:
        assert bslq.validate(zero_spec_3x2(kind)).ok


def _with_nan(value):
    if isinstance(value, AffineProcess):
        return AffineProcess(_with_nan(value.a), value.b)
    if isinstance(value, MatrixPath):
        return MatrixPath(value.kind, _with_nan(value.values), value.grid)
    bad = np.array(value, dtype=float)
    bad.flat[-1] = np.nan
    return bad


def _wrong_shape(value):
    if isinstance(value, AffineProcess):
        return AffineProcess.zero((value.shape[0] + 1,), value.grid)
    if isinstance(value, MatrixPath):
        return MatrixPath.zeros(value.shape[:-1] + (value.shape[-1] + 1,), value.grid)
    return np.zeros(value.shape[:-1] + (value.shape[-1] + 1,))


@pytest.mark.parametrize("kind, name", COEFFICIENTS,
                         ids=[name for _, name in COEFFICIENTS])
def test_each_coefficient_is_checked_for_shape_and_finiteness(kind, name):
    spec = zero_spec_3x2(kind)
    value = getattr(spec, name)
    label = f"{name}.a" if isinstance(value, AffineProcess) else name

    violations = bslq.validate(spec.replace(**{name: _with_nan(value)})).violations
    assert len(violations) == 1 and violations[0].startswith(f"{label}: non-finite")

    violations = bslq.validate(spec.replace(**{name: _wrong_shape(value)})).violations
    parts = [f"{name}.a", f"{name}.b"] if isinstance(value, AffineProcess) else [name]
    assert [v.split(": shape ")[0] for v in violations] == parts, violations


def test_forward_round_trip_with_paths_and_affine_loading(tmp_path):
    sf = bslq.builtin_scenario("SF", steps=10)
    grid = sf.grid
    t = grid.nodes
    sf = sf.replace(
        cA=MatrixPath.sampled(np.sin(3.0 * t).reshape(11, 1, 1), grid),
        cQ=MatrixPath.piecewise(np.where(t < 0.5, 0.5, 2.0).reshape(11, 1, 1), grid),
        sigma=AffineProcess(MatrixPath.sampled(0.1 * t.reshape(11, 1), grid),
                            MatrixPath.constant([0.3], grid)),
        rhoTilde=AffineProcess.of_constants([0.2], [-0.4], grid),
        gTilde=np.array([0.25]), x0=np.array([-0.7]))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    bslq.save_scenario(sf, str(first))
    loaded = bslq.load_scenario(str(first))
    bslq.save_scenario(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert loaded.cA.kind == "grid-sampled" and loaded.cQ.kind == "piecewise-constant"
    for f in dataclasses.fields(sf):
        mine, theirs = getattr(sf, f.name), getattr(loaded, f.name)
        if isinstance(mine, AffineProcess):
            for a, b in zip(mine.node_parts(), theirs.node_parts()):
                np.testing.assert_array_equal(a, b)
        elif isinstance(mine, MatrixPath):
            np.testing.assert_array_equal(mine.node_values(), theirs.node_values())
        elif isinstance(mine, np.ndarray):
            np.testing.assert_array_equal(mine, theirs)
    psol, again = bslq.solve_forward_riccati(sf), bslq.solve_forward_riccati(loaded)
    np.testing.assert_array_equal(psol.P, again.P)
    np.testing.assert_array_equal(bslq.solve_eta_zeta(sf, psol).phi.a.node_values(),
                                  bslq.solve_eta_zeta(loaded, again).phi.a.node_values())


SQUARE = [(kind, name) for kind, name in COEFFICIENTS
          if len(SHAPES_3X2[name]) == 2 and len(set(SHAPES_3X2[name])) == 1]


@pytest.mark.parametrize("kind, name", SQUARE, ids=[name for _, name in SQUARE])
def test_symmetry_is_checked_where_declared(kind, name):
    spec = zero_spec_3x2(kind)
    value = getattr(spec, name)
    skew = np.zeros(SHAPES_3X2[name])
    skew[0, 1] = 1.0
    bad = skew if isinstance(value, np.ndarray) else MatrixPath.constant(skew, spec.grid)
    violations = bslq.validate(spec.replace(**{name: bad})).violations
    if name in ("G", "Q", "R11", "R22", "cG", "cQ", "cR"):
        assert len(violations) == 1 and violations[0].startswith(f"{name}: not symmetric")
    else:
        assert violations == []
