"""Tests of the benchmark's own parts: scenario inputs, tracing, checks.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bslq  # noqa: E402
import bslq.cli  # noqa: E402
from checks import (check_flip, check_oracle, check_simulate,  # noqa: E402
                    check_verify, constant_std_bound)
from reference import NOMINAL_S, Reference, normalise  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import FIXTURE_2X2, FLIP, write_scenarios  # noqa: E402


def _suite_fixture():
    """``make_spec_2d`` from the test suite's conftest."""
    spec = importlib.util.spec_from_file_location(
        "bslq_suite_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_spec_2d()


def test_scenario_files_load_back_as_the_suite_fixture(tmp_path):
    write_scenarios(bslq, str(tmp_path))
    loaded = bslq.load_scenario(str(tmp_path / FIXTURE_2X2))
    expected = _suite_fixture()
    assert (loaded.n, loaded.m, loaded.grid.steps) == (expected.n, expected.m,
                                                       expected.grid.steps)
    for name in ("A", "B", "C", "Q", "S1", "S2", "R11", "R12", "R21", "R22"):
        assert np.array_equal(getattr(loaded, name).node_values(),
                              getattr(expected, name).node_values()), name
    for name in ("f", "q", "rho1", "rho2", "xi"):
        for got, want in zip(getattr(loaded, name).node_parts(),
                             getattr(expected, name).node_parts()):
            assert np.array_equal(got, want), name
    assert np.array_equal(loaded.G, expected.G)
    assert np.array_equal(loaded.g, expected.g)

    flip = bslq.load_scenario(str(tmp_path / FLIP))
    assert np.all(flip.R22.node_values() == -1.0)


def test_self_time_subtracts_child_spans_and_aggregates():
    # id, name, start, end, parent, op, pass, attrs
    spans = [[1, "cli.main", 0.0, 10.0, None, 0, 0, None],
             [2, "ode.integrate", 1.0, 4.0, 1, 0, 0, None],
             [3, "ode.integrate", 5.0, 6.0, 1, 0, 0, None]]
    leaf = {2: [100, 0.5]}
    assert self_times(spans, leaf) == {1: 6.0, 2: 2.5, 3: 1.0}


def test_tracer_rebinds_every_binding_and_restores_them():
    original = bslq.riccati.solve_sigma
    tracer = Tracer()
    tracer.install(bslq)
    try:
        holders = (bslq.riccati, bslq.simulate, bslq.evaluate, bslq.cli, bslq)
        wrapped = {id(h.solve_sigma) for h in holders}
        assert len(wrapped) == 1 and bslq.solve_sigma.__wrapped__ is original
        tracer.pass_id = 0
        assert bslq.cli.main(["value", "builtin:S4", "--steps", "20"]) == 0
    finally:
        tracer.uninstall()
    assert bslq.riccati.solve_sigma is original and bslq.cli.solve_sigma is original
    metrics, modules = layer_metrics(tracer, 0)
    assert metrics["ode.integrate_calls"] == 3
    assert metrics["ode.integrations_per_solve"] == 3.0
    assert metrics["ode.rk4_steps"] == 3 * 20 * 4
    assert metrics["grid.path_calls"] > 0
    assert metrics["riccati.sigma_calls"] == 1
    assert metrics["problem.resample_calls"] == 1
    root = next(rec for rec in tracer.spans if rec[1] == "cli.main")
    assert sum(modules.values()) == pytest.approx(root[3] - root[2])


def _write(path, text):
    path.write_text(text.replace("\n", "\r\n"), encoding="utf-8")


def test_verify_check_rejects_failed_or_changed_rows(tmp_path):
    header = "check,value,comparator,threshold,passed\n"
    _write(tmp_path / "verify.csv", header + "p_terminal_anchor,0,<=,0,1\n"
           "weight_min_eig,1,>=,0,1\nadjoint_residual,0,<=,1e-06,1\n"
           "forward_value_gap,1e-13,<=,0.0001,1\n")
    assert check_verify(0, str(tmp_path))[0]
    assert not check_verify(1, str(tmp_path))[0]
    _write(tmp_path / "verify.csv", header + "p_terminal_anchor,0,<=,0,1\n"
           "weight_min_eig,1,>=,0,1\nadjoint_residual,2e-06,<=,1e-06,1\n"
           "forward_value_gap,1e-13,<=,0.0001,1\n")
    assert not check_verify(0, str(tmp_path))[0]
    _write(tmp_path / "verify.csv", header + "p_terminal_anchor,0,<=,0,1\n")
    assert not check_verify(0, str(tmp_path))[0]


def test_simulate_check(tmp_path):
    paths = 10000
    header = "t,Y_0_mean,Y_0_std,Y_1_mean,Y_1_std\n"
    first = f"0,-0.78,0,0.9,{2.0 ** -52}\n"
    _write(tmp_path / "summary.csv", header + first + "1,0.201,1.0,-0.1,0.5\n")
    assert check_simulate(0, str(tmp_path), paths, [0.2, -0.1])[0]
    _write(tmp_path / "summary.csv", header + first + "1,0.3,1.0,-0.1,0.5\n")
    assert not check_simulate(0, str(tmp_path), paths, [0.2, -0.1])[0]
    _write(tmp_path / "summary.csv", header + "0,-0.78,1e-9,0.9,0\n1,0.2,1.0,-0.1,0.5\n")
    assert not check_simulate(0, str(tmp_path), paths, [0.2, -0.1])[0]
    _write(tmp_path / "summary.csv", header + "0,-0.78,0,0.9,0\n1,nan,1.0,-0.1,0.5\n")
    assert not check_simulate(0, str(tmp_path), paths, [0.2, -0.1])[0]
    assert constant_std_bound(0.9, paths) < 2e-15


def test_oracle_and_flip_checks():
    table = ("formula value = 0.5\n  N=  4  value=0.55  gap=5.00e-02\n"
             "  N=  6  value=0.53  gap=3.00e-02\n")
    ok = table + "extrapolated gap = 2.00e-03 (monotone: True)\n"
    assert check_oracle(0, ok) == (True, "", {"oracle_gap": 2e-3})
    assert not check_oracle(0, table + "extrapolated gap = 2.00e-02 (monotone: True)\n")[0]
    assert not check_oracle(0, table + "extrapolated gap = 2.00e-03 (monotone: False)\n")[0]
    assert not check_oracle(0, "steps = 8\n")[0]
    assert check_flip(1, "discrete problem nonconvex\n")[0]
    assert not check_flip(0, "")[0]


def test_reference_kernels_time_and_normalise():
    for kind in ("interpreter", "lapack"):
        assert Reference(kind).time() > 0.0
    with pytest.raises(ValueError):
        Reference("gpu")
    assert normalise(3.0, 2 * NOMINAL_S) == pytest.approx(1.5)
