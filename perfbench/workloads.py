"""Scenario inputs and the operations each benchmark workload runs.

Every operation is one call of ``bslq.cli.main`` with the argument list
given here.  ``{dir}`` in an argument is replaced by the run's scenario
directory, ``{out}`` by the operation's output directory and ``{seed}`` by
the Brownian seed of the run, so the same ``--seed`` gives the same inputs.

Sizes are chosen so that a pass over a workload's operations takes a few
seconds on a 2-vCPU machine and every operation passes its checks at the
seed commit:

* ``verify-2x2`` at 50 steps keeps the residual rows below 1e-6; at
  1500 paths the Monte-Carlo cost, perturbation and sampling work
  (``evaluate``/``grid``) outweighs the ODE work.
* ``verify-scalar`` uses few paths, so per-call Python overhead in
  ``ode``/``riccati``/``bsde`` dominates.  SH needs 100 steps: below about
  80 its Riccati residual and perturbation defect exceed their gates.
* ``simulate-2x2`` is path-bound: Brownian generation, the dual-SDE Euler
  loop and synthesis over many paths, with ``--workers 2``.
* ``oracle-tree`` is dense LAPACK work at the deepest tree depths a pass
  of a few seconds allows, plus the nonconvex flip, which must exit 1.
  ``--compare`` always solves N = 4, 6, 8, 10, so on the 2x2 fixture the
  N = 10 solve (D = 2046) dominates whatever ``--tree-steps`` is.
"""

from __future__ import annotations

import os

FIXTURE_2X2 = "fixture_2x2.json"
FLIP = "flip_s1.json"

# Which checker reads an operation's output.
VERIFY, SIMULATE, ORACLE, FLIP_CHECK = "verify", "simulate", "oracle", "flip"

# "reference" names the kernel of reference.py that normalises the
# workload's times: it should do the same kind of work as the workload.

WORKLOADS = {
    "verify-2x2": {
        "reference": "interpreter",
        "warmup": ["verify", "{dir}/" + FIXTURE_2X2, "--paths", "100",
                   "--steps", "20", "--trials", "2", "--seed", "{seed}"],
        "ops": [
            (VERIFY, ["verify", "{dir}/" + FIXTURE_2X2, "--paths", "1500",
                      "--steps", "50", "--seed", "{seed}", "--out", "{out}"]),
        ],
    },
    "verify-scalar": {
        "reference": "interpreter",
        "warmup": ["verify", "builtin:S4", "--paths", "100", "--steps", "20",
                   "--trials", "2", "--seed", "{seed}"],
        "ops": [
            (VERIFY, ["verify", "builtin:S5", "--paths", "200", "--steps", "50",
                      "--seed", "{seed}", "--out", "{out}"]),
            (VERIFY, ["verify", "builtin:SX", "--paths", "200", "--steps", "50",
                      "--seed", "{seed}", "--out", "{out}"]),
            (VERIFY, ["verify", "builtin:SH", "--paths", "200", "--steps", "100",
                      "--seed", "{seed}", "--out", "{out}"]),
            (VERIFY, ["verify", "builtin:SF", "--paths", "200", "--steps", "100",
                      "--seed", "{seed}", "--out", "{out}"]),
        ],
    },
    "simulate-2x2": {
        "reference": "interpreter",
        "warmup": ["simulate", "{dir}/" + FIXTURE_2X2, "--paths", "200",
                   "--steps", "20", "--workers", "2", "--seed", "{seed}",
                   "--out", "{out}"],
        "ops": [
            (SIMULATE, ["simulate", "{dir}/" + FIXTURE_2X2, "--paths", "10000",
                        "--steps", "100", "--workers", "2", "--seed", "{seed}",
                        "--out", "{out}"]),
        ],
    },
    "oracle-tree": {
        "reference": "lapack",
        "warmup": ["oracle", "builtin:SX", "--tree-steps", "6", "--steps", "50"],
        "ops": [
            (ORACLE, ["oracle", "builtin:SX", "--tree-steps", "11", "--steps", "50",
                      "--compare"]),
            (ORACLE, ["oracle", "{dir}/" + FIXTURE_2X2, "--tree-steps", "9",
                      "--steps", "50", "--compare"]),
            (FLIP_CHECK, ["oracle", "{dir}/" + FLIP, "--tree-steps", "8",
                          "--steps", "200"]),
        ],
    },
}


def expand(argv: list[str], scenario_dir: str, out: str, seed: int) -> list[str]:
    return [a.format(dir=scenario_dir, out=out, seed=seed) for a in argv]


def make_spec_2d(bslq, steps: int = 100):
    """The full-featured 2x2 problem of the test suite's ``make_spec_2d``:
    cross weights, indefinite R11, shift H, affine noise in every slot."""
    import numpy as np

    grid = bslq.TimeGrid(1.0, steps)

    def mat(M):
        return bslq.MatrixPath.constant(np.array(M, dtype=float), grid)

    def aff(a, b):
        return bslq.AffineProcess.of_constants(np.array(a, dtype=float),
                                               np.array(b, dtype=float), grid)

    return bslq.ProblemSpec(
        n=2, m=2, grid=grid,
        A=mat([[0.0, 0.2], [-0.2, 0.1]]),
        B=mat([[1.0, 0.0], [0.2, 1.0]]),
        C=mat([[0.1, 0.3], [0.0, -0.1]]),
        f=aff([0.1, -0.2], [0.05, 0.0]),
        G=np.array([[0.2, 0.05], [0.05, 0.1]]),
        g=np.array([0.5, -0.3]),
        Q=mat([[0.3, 0.1], [0.1, 0.2]]),
        S1=mat([[0.1, 0.0], [0.05, -0.1]]),
        S2=mat([[0.1, 0.05], [0.0, 0.1]]),
        R11=mat([[0.3, 0.0], [0.0, -0.15]]),
        R12=mat([[0.1, 0.2], [0.0, 0.1]]),
        R21=mat([[0.1, 0.0], [0.2, 0.1]]),
        R22=mat([[1.0, 0.1], [0.1, 0.8]]),
        q=aff([0.05, 0.1], [0.0, 0.02]),
        rho1=aff([0.1, 0.0], [0.03, 0.0]),
        rho2=aff([-0.05, 0.1], [0.0, 0.04]),
        xi=aff([0.2, -0.1], [1.0, 0.5]),
    )


def make_flip(bslq):
    """S1 with R22 = -1: the discrete problem is nonconvex."""
    spec = bslq.builtin_scenario("S1")
    return spec.replace(R22=bslq.MatrixPath.constant([[-1.0]], spec.grid))


def write_scenarios(bslq, scenario_dir: str) -> None:
    """Write the 2x2 fixture and the nonconvex flip with ``save_scenario``."""
    os.makedirs(scenario_dir, exist_ok=True)
    bslq.save_scenario(make_spec_2d(bslq), os.path.join(scenario_dir, FIXTURE_2X2))
    bslq.save_scenario(make_flip(bslq), os.path.join(scenario_dir, FLIP))
