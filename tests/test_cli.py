"""Command-line interface: exit codes, CSV outputs, determinism."""

import json
import os

import numpy as np
import pytest

import bslq
from bslq.cli import main


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
], ids=["paths0", "paths1", "trials0"])
def test_verify_rejects_unusable_sizes(flags, message, capsys):
    code, _, err = run(["verify", "builtin:S4", "--steps", "20"] + flags, capsys)
    assert code == 2
    assert err == f"error: {message}\n"


def test_negative_seed_is_taken_modulo_2_64(capsys):
    # Every Philox key takes the seed modulo 2**64, as the Brownian paths do.
    args = ["verify", "builtin:S4", "--paths", "10", "--steps", "10", "--trials", "1"]
    negative = run(args + ["--seed", "-5"], capsys)
    wrapped = run(args + ["--seed", str(2 ** 64 - 5)], capsys)
    assert negative[0] in (0, 1)
    assert "delta_hat" in negative[1]
    assert negative == wrapped


@pytest.mark.parametrize("command", [["value", "builtin:S4"], ["value", "builtin:SF"],
                                     ["verify", "builtin:S4", "--paths", "10"]],
                         ids=["value", "value-forward", "verify"])
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


def test_unknown_builtin_exits_two(capsys):
    code, _, err = run(["value", "builtin:NOPE"], capsys)
    assert code == 2
    assert "error" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
