"""Command-line interface: exit codes, CSV outputs, determinism."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import bslq
from bslq import evaluate, oracle
from bslq.cli import main, write_csv

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_command(capsys):
    code, out, _ = run(["value", "builtin:S2", "--steps", "100"], capsys)
    assert code == 0
    assert "value = 1" in out


def test_solve_writes_csvs(tmp_path, capsys):
    out = str(tmp_path / "solve")
    code, stdout, _ = run(["solve", "builtin:S4", "--steps", "50",
                           "--out", out], capsys)
    assert code == 0
    for fname in ("sigma.csv", "h.csv", "phi.csv"):
        assert os.path.exists(os.path.join(out, fname))
    sigma = np.loadtxt(os.path.join(out, "sigma.csv"), delimiter=",", skiprows=1)
    np.testing.assert_allclose(sigma[:, 1], 1.0 - sigma[:, 0], atol=1e-8)


def test_solve_forward_writes_p(tmp_path, capsys):
    out = str(tmp_path / "fw")
    code, _, _ = run(["solve", "builtin:SF", "--steps", "50", "--out", out], capsys)
    assert code == 0
    p = np.loadtxt(os.path.join(out, "p.csv"), delimiter=",", skiprows=1)
    np.testing.assert_allclose(p[:, 1], 1.0 / (2.0 - p[:, 0]), atol=1e-8)


def test_reduce_emits_scenario(tmp_path, capsys):
    out = str(tmp_path / "red")
    code, stdout, _ = run(["reduce", "builtin:SH", "--steps", "50",
                           "--out", out], capsys)
    assert code == 0
    assert "constant shift" in stdout
    reduced = bslq.load_scenario(os.path.join(out, "reduced_scenario.json"))
    assert reduced.Q.is_zero()
    assert not np.any(reduced.G)


def test_simulate_deterministic_bytes(tmp_path, capsys):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    args = ["simulate", "builtin:S4", "--paths", "100", "--steps", "50",
            "--seed", "7"]
    assert run(args + ["--out", out1], capsys)[0] == 0
    assert run(args + ["--out", out2], capsys)[0] == 0
    with open(os.path.join(out1, "summary.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "summary.csv"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_simulate_per_path(tmp_path, capsys):
    out = str(tmp_path / "pp")
    code, _, _ = run(["simulate", "builtin:S2", "--paths", "3", "--steps", "10",
                      "--out", out, "--per-path"], capsys)
    assert code == 0
    rows = np.loadtxt(os.path.join(out, "paths.csv"), delimiter=",", skiprows=1)
    assert rows.shape[0] == 3 * 11


def whole_ensemble_paths_csv(spec, seed, paths, path):
    """paths.csv built, as before streaming, from one ensemble of all paths."""
    bw = bslq.BrownianEnsemble.generate(seed, paths, spec.grid)
    if isinstance(spec, bslq.ForwardProblemSpec):
        psol = bslq.solve_forward_riccati(spec)
        ens = bslq.simulate_forward_closed_loop(spec, psol, bslq.solve_eta_zeta(spec, psol), bw)
        fields = {"X": ens["X"], "v": ens["v"]}
    else:
        ens = bslq.synthesize_optimal(spec, bw).ensemble
        fields = {"X": ens["X"], "Y": ens["Y"], "Z": ens["Z"], "u": ens["u"]}
    header = ["path", "t"] + [f"{name}{f'_{i}' if arr.shape[-1] > 1 else ''}"
                              for name, arr in fields.items() for i in range(arr.shape[-1])]
    t = spec.grid.nodes
    write_csv(path, header, ([float(p), t[k]] + [x for arr in fields.values() for x in arr[p, k]]
                             for p in range(paths) for k in range(len(t))))


@pytest.mark.parametrize("scenario", ["2x2", "SF"])
def test_per_path_rows_match_the_whole_ensemble(scenario, spec_2d, tmp_path, capsys):
    # 2 PATH_BLOCK + 1 paths: two full blocks and a block of one path.
    paths = 2 * bslq.simulate.PATH_BLOCK + 1
    spec = bslq.resample(spec_2d, 10) if scenario == "2x2" else bslq.builtin_scenario("SF", 10)
    scenario_path = tmp_path / "scenario.json"
    bslq.save_scenario(spec, str(scenario_path))
    code, _, _ = run(["simulate", str(scenario_path), "--steps", "10", "--paths", str(paths),
                      "--seed", "5", "--per-path", "--out", str(tmp_path)], capsys)
    assert code == 0
    whole_ensemble_paths_csv(spec, 5, paths, str(tmp_path / "reference.csv"))
    assert (tmp_path / "paths.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_blow_up_names_the_global_path(monkeypatch, tmp_path, capsys):
    # An infinite increment on path 1500, in the second block of paths.
    generate = bslq.BrownianEnsemble.generate

    def poisoned(seed, paths, grid, first=0):
        bw = generate(seed, paths, grid, first)
        if first <= 1500 < first + paths:
            bw.increments[1500 - first, 3] = np.inf
            bw.W[1500 - first, 4:] = np.inf
        return bw

    monkeypatch.setattr(bslq.BrownianEnsemble, "generate", poisoned)
    out = tmp_path / "sim"
    with np.errstate(invalid="ignore", over="ignore"):
        code, stdout, err = run(["simulate", "builtin:S4", "--steps", "10", "--paths", "3000",
                                 "--per-path", "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    assert err == "contract violation: dual SDE blew up at path 1500, step 4 (t=0.4)\n"
    assert os.listdir(out) == []  # no truncated paths.csv is left behind


def test_verify_passes_s2(tmp_path, capsys):
    out = str(tmp_path / "verify")
    code, stdout, _ = run(["verify", "builtin:S2", "--paths", "1000",
                           "--steps", "100", "--trials", "4", "--out", out],
                          capsys)
    assert code == 0
    assert "value_gap" in stdout
    assert "FAIL" not in stdout
    assert os.path.exists(os.path.join(out, "verify.csv"))


def test_verify_forward_rejects_backward_flags(capsys):
    # The forward table has no convexity probe and no perturbations.
    code, out, err = run(["verify", "builtin:SF", "--trials", "3", "--eps-grid", "5",
                          "--paths", "100", "--steps", "20"], capsys)
    assert code == 2
    assert err == "error: --trials, --eps-grid: not used by forward scenarios\n"
    assert out == ""


@pytest.mark.parametrize("flags,message", [
    (["--paths", "0"], "--paths must be at least 2 (a standard error needs two paths)"),
    (["--paths", "1"], "--paths must be at least 2 (a standard error needs two paths)"),
    (["--trials", "0"], "--trials must be at least 1"),
    # A 2-node path has no interior node: every residual row would read 0.
    (["--steps", "1"], "--steps must be at least 2 (the residual checks need an "
                       "interior node)"),
], ids=["paths0", "paths1", "trials0", "steps1"])
def test_verify_rejects_unusable_sizes(flags, message, capsys):
    code, _, err = run(["verify", "builtin:S4", "--steps", "20"] + flags, capsys)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("eps_grid,message", [
    pytest.param("nan", "entries must be finite, got nan", id="nan-nan"),
    pytest.param("inf", "entries must be finite, got inf", id="inf-inf"),
    pytest.param("0.1,nan", "entries must be finite, got nan", id="0.1,nan-nan"),
    pytest.param("1e308", "entries must have a finite square, got 1e+308", id="overflow"),
    pytest.param("0.1,-1e200", "entries must have a finite square, got -1e+200",
                 id="overflow-second"),
    pytest.param("0", "needs a nonzero entry: eps = 0 perturbs nothing", id="zero"),
    pytest.param("0,-0.0", "needs a nonzero entry: eps = 0 perturbs nothing", id="zeros"),
])
def test_verify_rejects_non_finite_eps(eps_grid, message, monkeypatch, capsys):
    # nan raised StopIteration, inf passed with an infinite margin and a nan
    # among finite sizes passed because max/min skip it.  1e308 raised
    # OverflowError at eps ** 2 after the whole synthesis, and a grid of zeros
    # passed perturbation_defect_excess 0 vacuously.
    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before checking --eps-grid")

    monkeypatch.setattr(evaluate, "synthesize_optimal", no_solve)
    code, out, err = run(["verify", "builtin:S5", "--steps", "20", "--paths", "200",
                          "--eps-grid", eps_grid], capsys)
    assert (code, out, err) == (2, "", f"error: --eps-grid {message}\n")


@pytest.mark.parametrize("command", [
    ["solve", "builtin:S4"],
    ["verify", "builtin:S4", "--paths", "10", "--trials", "1"],
    ["oracle", "builtin:SX", "--tree-steps", "4", "--compare"],
])
def test_out_naming_a_file_exits_two(command, tmp_path, capsys):
    # verify printed its whole table, and oracle its solution, before the
    # output directory was made.
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = run(command + ["--steps", "10", "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "File exists" in err and err.count("\n") == 1
    assert path.read_text() == ""


def test_negative_seed_is_taken_modulo_2_64(capsys):
    # Every Philox key takes the seed modulo 2**64, as the Brownian paths do.
    args = ["verify", "builtin:S4", "--paths", "10", "--steps", "10", "--trials", "1"]
    negative = run(args + ["--seed", "-5"], capsys)
    wrapped = run(args + ["--seed", str(2 ** 64 - 5)], capsys)
    assert negative[0] in (0, 1)
    assert "delta_hat" in negative[1]
    assert negative == wrapped


@pytest.mark.parametrize("command", [["value", "builtin:S4"], ["value", "builtin:SF"],
                                     ["verify", "builtin:S4", "--paths", "10"],
                                     ["oracle", "builtin:SX", "--tree-steps", "4", "--compare"]],
                         ids=["value", "value-forward", "verify", "oracle-compare"])
def test_substeps_below_one_exits_two(command, capsys):
    code, out, err = run(command + ["--steps", "10", "--substeps", "0"], capsys)
    assert code == 2
    assert err == "error: substeps must be >= 1, got 0\n"
    assert out == ""


@pytest.mark.parametrize("paths", ["0", "-1"])
def test_simulate_rejects_no_paths(paths, tmp_path, capsys):
    out = str(tmp_path / "sim")
    code, stdout, err = run(["simulate", "builtin:S4", "--steps", "10", "--paths", paths,
                             "--out", out], capsys)
    assert code == 2
    assert err == "error: --paths must be at least 1\n"
    assert stdout == ""
    assert not os.path.exists(out)


def test_verify_contract_violation_exits_one(tmp_path, capsys):
    # R22 < 0 makes the problem non-solvable; verify must exit 1.
    doc = bslq.scenario_document(bslq.builtin_scenario("S1", steps=20))
    doc["R22"] = [[-1.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", str(path), "--paths", "100",
                        "--steps", "20"], capsys)
    assert code == 1
    assert "R22" in err


def test_integration_blowup_exits_one(tmp_path, capsys):
    # S4 with S1 = 30: Sigma leaves the finite range before t = 0 on a
    # 50-step grid; the CLI must report it, not print a traceback.
    doc = bslq.scenario_document(bslq.builtin_scenario("S4"))
    doc["S1"] = [[30.0]]
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(["value", str(path), "--steps", "50"], capsys)
    assert code == 1
    assert "contract violation: non-finite state at node 42" in err


@pytest.mark.parametrize("scenario, message", [
    ("S4", "contract violation: non-finite state at node 7 (t=0.35)\n"),
    ("2x2", "contract violation: non-finite state at node 13 (t=0.65)\n"),
], ids=["scalar", "2x2"])
def test_integration_blowup_is_one_line(scenario, message, spec_2d, tmp_path, capsys):
    # A = 3000 I, R11 = -50 I: the scalar float loop and the 2x2 matrix loop
    # both overflow; each reports the typed error once, with no numpy warning.
    spec = spec_2d if scenario == "2x2" else bslq.builtin_scenario(scenario)
    doc = bslq.scenario_document(spec)
    doc["A"] = (3000.0 * np.eye(spec.n)).tolist()
    doc["R11"] = (-50.0 * np.eye(spec.n)).tolist()
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["value", str(path), "--steps", "20"], capsys)
    assert code == 1
    assert out == ""
    assert err == message


def test_drift_form_gap_exits_one(monkeypatch, capsys):
    # A negative tolerance makes the drift self-check fail on any scenario.
    monkeypatch.setattr(bslq.bsde, "CROSS_FORM_TOL", -1.0)
    code, _, err = run(["value", "builtin:SX", "--steps", "20"], capsys)
    assert code == 1
    assert "contract violation: collapsed and expanded drift forms disagree" in err


def test_oracle_command(capsys):
    code, out, _ = run(["oracle", "builtin:S1", "--tree-steps", "4"], capsys)
    assert code == 0
    assert "value = 0" in out


def test_oracle_compare(capsys):
    code, out, _ = run(["oracle", "builtin:S2", "--tree-steps", "4",
                        "--compare", "--steps", "100"], capsys)
    assert code == 0
    assert "extrapolated gap" in out


def test_oracle_compare_reuses_the_tree_steps_solve(monkeypatch, capsys):
    # --tree-steps 8 is on the compare ladder (4, 6, 8, 10): its tree is
    # eliminated once, and the gap table is the one the ladder gives alone.
    args = ["oracle", "builtin:SX", "--steps", "50", "--compare"]
    trees = []
    tree = oracle._tree
    monkeypatch.setattr(oracle, "_tree", lambda spec, steps: trees.append(steps)
                        or tree(spec, steps))
    code, out, _ = run(args + ["--tree-steps", "8"], capsys)
    assert code == 0
    assert sorted(trees) == [4, 6, 8, 10]
    trees.clear()
    _, alone, _ = run(args + ["--tree-steps", "5"], capsys)
    assert sorted(trees) == [4, 5, 6, 8, 10]
    table = out[out.index("formula value"):]
    assert table == alone[alone.index("formula value"):]
    assert len(table.splitlines()) == 6


def test_oracle_nonconvex_exits_one(tmp_path, capsys):
    doc = bslq.scenario_document(bslq.builtin_scenario("S1", steps=20))
    doc["R22"] = [[-1.0]]
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["oracle", str(path), "--tree-steps", "4"], capsys)
    assert code == 1
    assert "nonconvex" in err


def test_oracle_compare_nonconvex_exits_one(tmp_path, capsys):
    # S4 with R11 = -1.2: the tree problem is convex at N = 4 but not at
    # N = 8, which the gap table reaches; that is a contract violation.
    doc = bslq.scenario_document(bslq.builtin_scenario("S4"))
    doc["R11"] = [[-1.2]]
    path = tmp_path / "s4_r11.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["oracle", str(path), "--tree-steps", "4",
                          "--steps", "50", "--compare"], capsys)
    assert code == 1
    assert "value = " in out
    assert "contract violation: discrete problem at 8 steps is nonconvex" in err


def test_oracle_singular_warning(tmp_path, capsys):
    # S4 with R22 = 0: the tree Hessian is singular, the optimum is not
    # unique, but the value is.
    doc = bslq.scenario_document(bslq.builtin_scenario("S4"))
    doc["R22"] = [[0.0]]
    path = tmp_path / "s4_r22.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["oracle", str(path), "--tree-steps", "4"], capsys)
    assert code == 0
    assert "warning: normal equations near-singular (non-unique optimum)" in out
    value = float(next(line for line in out.splitlines()
                        if line.startswith("value = "))[len("value = "):])
    assert value == pytest.approx(0.25, abs=1e-12)


def test_oracle_controls_csv(tmp_path, capsys):
    out = str(tmp_path / "oracle")
    code, _, _ = run(["oracle", "builtin:S2", "--tree-steps", "3",
                      "--out", out], capsys)
    assert code == 0
    rows = np.loadtxt(os.path.join(out, "controls.csv"), delimiter=",",
                      skiprows=1)
    assert rows.shape[0] == 7
    # the optimal control of S2 is u = 1 at every node
    np.testing.assert_allclose(rows[:, 4], 1.0, atol=1e-10)


def test_verify_all_builtins_under_budget(capsys):
    # Every builtin passes the default-scale verification table, all of
    # them together in under five minutes.
    import time
    start = time.perf_counter()
    for name in bslq.BUILTIN_NAMES:
        code, out, err = run(["verify", f"builtin:{name}"], capsys)
        assert code == 0, f"{name}: {err}"
        assert "FAIL" not in out, name
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.0f}s"


def _perfbench(name):
    """A module of the benchmark harness, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_verify_2x2_operation(tmp_path, capsys):
    # The verify-2x2 benchmark operation (2x2 fixture, 1500 paths, 50 steps)
    # at seed 1, judged by the benchmark's own checker.
    workloads, checks = _perfbench("workloads"), _perfbench("checks")
    workloads.write_scenarios(bslq, str(tmp_path))
    (kind, argv), = workloads.WORKLOADS["verify-2x2"]["ops"]
    out = tmp_path / "out"
    code = main(workloads.expand(argv, str(tmp_path), str(out), 1))
    capsys.readouterr()
    assert kind == workloads.VERIFY
    ok, reason, info = checks.check_verify(code, str(out))
    assert ok, reason
    assert "value_gap" in info


def test_unknown_builtin_exits_two(capsys):
    code, _, err = run(["value", "builtin:NOPE"], capsys)
    assert code == 2
    assert "error" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("field, value", [
    ("x0", [float("nan")]),        # value printed nan and exited 0
    ("cG", [[float("nan")]]),      # the Riccati pass blew up: exit 1
    ("gTilde", [float("inf")]),    # value exited 0
])
def test_forward_constants_must_be_finite(field, value, tmp_path, capsys):
    doc = bslq.scenario_document(bslq.builtin_scenario("SF", steps=20))
    doc[field] = value
    path = tmp_path / "sf.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["value", str(path), "--steps", "20"], capsys)
    assert (code, out, err) == (2, "", f"error: {field}: non-finite entry\n")


@pytest.mark.parametrize("field, value, message", [
    ("n", 1.7, "n must be an integer, got 1.7"),
    ("steps", 20.9, "steps must be an integer, got 20.9"),
    ("n", True, "n must be an integer, got true"),
    ("steps", "20", 'steps must be an integer, got "20"'),
    ("m", 20.0, "m must be an integer, got 20.0"),
    ("m", 0, "m must be >= 1, got 0"),
    ("steps", 0, "steps must be >= 1, got 0"),
    ("T", None, "T must be a number, got null"),
], ids=["n-float", "steps-float", "n-bool", "steps-string", "m-integral-float",
        "m-zero", "steps-zero", "T-null"])
def test_scenario_header_numbers_are_checked(field, value, message, tmp_path, capsys):
    # A fractional or boolean size used to be truncated by int() and load.
    doc = bslq.scenario_document(bslq.builtin_scenario("S4", steps=20))
    doc[field] = value
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["value", str(path), "--steps", "20"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [["verify", "--paths", "2"], ["value"]])
def test_underflowing_time_step_exits_two(command, tmp_path, capsys):
    # With T = 5e-324 the step T/steps is 0: verify died with an IndexError
    # traceback, and value printed "value = 0" and exited 0.
    doc = bslq.scenario_document(bslq.builtin_scenario("S4", steps=2))
    doc["T"] = 5e-324
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out, err = run([command[0], str(path), *command[1:], "--steps", "2"], capsys)
    assert (code, out, err) == (2, "", "error: time step T/steps is not a normal positive "
                                       "double: T = 5e-324, steps = 2\n")


@pytest.mark.parametrize("command, data, message", [
    (["value"], {"g": [-1e308]}, "optimal value is not finite: -inf"),
    (["value"], {"Q": [[1.0]], "xi": {"a": [-1e308], "b": [1.0]}},
     "constant shift E<H(T) xi, xi> is not finite: -inf"),
    (["reduce", "--out", "{out}"], {"Q": [[1.0]], "xi": {"a": [-1e308], "b": [1.0]}},
     "constant shift E<H(T) xi, xi> is not finite: -inf"),
    (["oracle", "--compare"], {"f": {"a": [1000.0], "b": [0.0]}, "g": [-1e308]},
     "tree value at 8 steps is not finite: nan"),
    (["simulate", "--paths", "100", "--out", "{out}"],
     {"B": [[1e8]], "g": [1e8], "xi": {"a": [1.0], "b": [1.0]},
      "q": {"a": [0.0], "b": [-1e150]}}, "output mean or std is not finite"),
], ids=["value-g", "value-xi", "reduce-xi", "oracle-tree", "simulate-std"])
def test_overflowing_value_exits_one(command, data, message, tmp_path, capsys):
    # S4 with R11 = 0: g = -1e308 overflowed <Sigma(0) g, g> to value = -inf,
    # and xi = -1e308 with Q = 1 the constant shift to -inf (value = nan),
    # each printed with exit 0 after a RuntimeWarning.  The oracle printed a
    # tree value of nan before it exited 1, and simulate wrote an inf std to
    # summary.csv and exited 0.
    doc = bslq.scenario_document(bslq.builtin_scenario("S4", steps=50))
    doc.update(R11=[[0.0]], **data)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    args = [command[0], str(path), *(a.format(out=tmp_path) for a in command[1:])]
    code, out, err = run([*args, "--steps", "50"], capsys)
    assert (code, out, err) == (1, "", f"contract violation: {message}\n")
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("field", ["G", "g", "x0"])
def test_constant_given_as_a_path_exits_two(field, tmp_path, capsys):
    name = "SF" if field == "x0" else "S4"
    doc = bslq.scenario_document(bslq.builtin_scenario(name, steps=2))
    doc[field] = {"t": [0.0, 0.5, 1.0], "values": [[0.0], [0.0], [0.0]]}
    path = tmp_path / "dict.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["value", str(path), "--steps", "2"], capsys)
    assert (code, out, err) == (2, "", f"error: {field}: invalid entry of type dict\n")


@pytest.mark.parametrize("field, value, message", [
    ("A", True, "A: non-numeric entry true"),
    ("G", "1.0", 'G: non-numeric entry "1.0"'),
    ("A", [[1.0], [1.0, 2.0]], "A: ragged nested list"),
    ("g", ["abc"], 'g: non-numeric entry "abc"'),
    ("B", [[{"a": 1}]], 'B: non-numeric entry {"a": 1}'),
    ("A", 10 ** 400, "A: number out of the float range"),
], ids=["path-bool", "constant-string", "ragged", "string-in-list", "object-in-list",
        "huge-integer"])
def test_scenario_entries_must_be_numbers(field, value, message, tmp_path, capsys):
    # A boolean or a numeric string used to load as a number; a ragged list
    # or a string in a list exited with numpy's message and no field name; an
    # object in a list or a huge integer raised a traceback.
    doc = bslq.scenario_document(bslq.builtin_scenario("S4", steps=20))
    doc[field] = value
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["value", str(path), "--steps", "20"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scipy_loads_at_the_first_draw(tmp_path):
    script = f"""
import sys
import bslq.cli
assert "scipy.special" not in sys.modules
for argv in (["value", "builtin:S4", "--steps", "20"],
             ["oracle", "builtin:SX", "--tree-steps", "6"]):
    assert bslq.cli.main(argv) == 0
    assert "scipy.special" not in sys.modules, argv
assert bslq.cli.main(["simulate", "builtin:S4", "--steps", "20", "--paths", "10",
                      "--out", {str(tmp_path)!r}]) == 0
assert "scipy.special" in sys.modules
"""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
