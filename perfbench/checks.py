"""Correctness checks on the output of one CLI operation.

Each checker returns ``(ok, reason, info)``; ``info`` carries the accuracy
figures the benchmark reports (``value_gap``, ``oracle_gap``).  The checks
read only what the CLI wrote (exit code, stdout/stderr, CSV files), so they
do not depend on the library's internals.
"""

from __future__ import annotations

import csv
import math
import os
import re

# (row name, comparator) of the verification tables at the seed commit.
BACKWARD_ROWS = frozenset({
    ("riccati_residual", "<="), ("sigma_psd_margin", ">="),
    ("sigma_symmetry", "<="), ("sigma_inverse_identity", "<="),
    ("r_of_sigma_conditioning", ">="), ("h_residual", "<="),
    ("bsde_residual", "<="), ("bsde_drift_form_gap", "<="),
    ("stationarity_sup", "<="), ("terminal_hit", "<="), ("value_gap", "<="),
    ("delta_hat", ">="), ("perturbation_defect_excess", "<="),
    ("optimality_dominance_margin", ">="), ("apriori_bound_ratio", "<="),
})
# SF lacks the conditional p_psd_margin row: its data do not meet the
# uniform-convexity conditions that add it.
FORWARD_ROWS = frozenset({
    ("p_terminal_anchor", "<="), ("weight_min_eig", ">="),
    ("adjoint_residual", "<="), ("forward_value_gap", "<="),
})
ORACLE_GAP_LIMIT = 0.01

_GAP_LINE = re.compile(r"^\s*N=\s*(\d+)\s+value=(\S+)\s+gap=(\S+)\s*$")
_EXTRAP_LINE = re.compile(r"^extrapolated gap = (\S+) \(monotone: (True|False)\)\s*$")


def check_verify(rc: int, out_dir: str) -> tuple[bool, str, dict]:
    if rc != 0:
        return False, f"exit code {rc}, expected 0", {}
    path = os.path.join(out_dir, "verify.csv")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return False, f"cannot read verify.csv: {exc}", {}
    names = {(r["check"], r["comparator"]) for r in rows}
    if len(names) != len(rows) or names not in (BACKWARD_ROWS, FORWARD_ROWS):
        return False, f"verification rows changed: {sorted(names)}", {}
    info = {}
    for r in rows:
        value, threshold = float(r["value"]), float(r["threshold"])
        holds = value <= threshold if r["comparator"] == "<=" else value >= threshold
        if r["passed"] != "1" or not holds:
            return False, f"row {r['check']} failed ({value:g} {r['comparator']} {threshold:g})", {}
        if r["check"] == "value_gap":
            info["value_gap"] = value
    return True, "", info


def constant_std_bound(mean: float, paths: int) -> float:
    """Largest std numpy can report for ``paths`` bitwise-equal values.

    The std of a constant column is |x - fl(mean)|, and numpy's pairwise
    summation bounds the relative error of the mean by (ceil(log2 P) + 1) u
    with u = 2**-53.  A Y(0) that varies across paths by more than rounding
    exceeds this bound.
    """
    return (math.ceil(math.log2(paths)) + 1) * 2.0 ** -53 * abs(mean)


def check_simulate(rc: int, out_dir: str, paths: int,
                   xi_mean: list[float]) -> tuple[bool, str, dict]:
    """summary.csv is finite, Y(0) has zero std up to the rounding of a
    constant column, and mean Y(T) is within four standard errors of E[xi]."""
    if rc != 0:
        return False, f"exit code {rc}, expected 0", {}
    path = os.path.join(out_dir, "summary.csv")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return False, f"cannot read summary.csv: {exc}", {}
    if len(rows) < 2:
        return False, "summary.csv has fewer than two nodes", {}
    values = [{k: float(v) for k, v in r.items()} for r in rows]
    if not all(math.isfinite(x) for r in values for x in r.values()):
        return False, "summary.csv holds a non-finite value", {}
    first, last = values[0], values[-1]
    suffixes = [""] if len(xi_mean) == 1 else [f"_{i}" for i in range(len(xi_mean))]
    for i, sfx in enumerate(suffixes):
        if first[f"Y{sfx}_std"] > constant_std_bound(first[f"Y{sfx}_mean"], paths):
            return False, f"Y{sfx}(0) std is {first[f'Y{sfx}_std']!r}, expected 0", {}
        stderr = last[f"Y{sfx}_std"] / math.sqrt(paths)
        if abs(last[f"Y{sfx}_mean"] - xi_mean[i]) > 4.0 * stderr:
            return False, (f"Y{sfx}(T) mean {last[f'Y{sfx}_mean']:g} is more than 4 "
                           f"standard errors from E[xi] = {xi_mean[i]:g}"), {}
    return True, "", {}


def check_oracle(rc: int, stdout: str) -> tuple[bool, str, dict]:
    """Gaps shrink monotonically and the Richardson gap is at most 0.01."""
    if rc != 0:
        return False, f"exit code {rc}, expected 0", {}
    gaps = [float(m.group(3)) for m in map(_GAP_LINE.match, stdout.splitlines()) if m]
    extrap = [m for m in map(_EXTRAP_LINE.match, stdout.splitlines()) if m]
    if len(gaps) < 2 or len(extrap) != 1:
        return False, "oracle gap table missing from output", {}
    if extrap[0].group(2) != "True" or any(b > a for a, b in zip(gaps, gaps[1:])):
        return False, f"gaps not monotone: {gaps}", {}
    gap = float(extrap[0].group(1))
    if not gap <= ORACLE_GAP_LIMIT:
        return False, f"extrapolated gap {gap:g} > {ORACLE_GAP_LIMIT}", {}
    return True, "", {"oracle_gap": gap}


def check_flip(rc: int, stderr: str) -> tuple[bool, str, dict]:
    if rc != 1:
        return False, f"exit code {rc}, expected 1", {}
    if "nonconvex" not in stderr:
        return False, "stderr does not report the problem as nonconvex", {}
    return True, "", {}
