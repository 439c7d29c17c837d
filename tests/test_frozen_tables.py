"""The verify tables of the benchmark's five verify operations, frozen at one seed.

A change meant to keep every certified number (a refactor, a speed-up) must
keep these tables: the same rows, comparators, thresholds and verdicts, and
each value equal to within rounding, |new - frozen| <= 1e-9 |frozen| + 1e-13.
A verdict is recorded as it came out, failing or not.

The operations are those of ``perfbench/workloads.py`` (``verify-2x2`` and
``verify-scalar``) at seed 1, plus two at seeds where Monte-Carlo rows fail:
the fixture at seed 174 (``value_gap`` and ``perturbation_defect_excess``)
and SX at seed 111 (``value_gap``).  Rewrite the frozen file, only for a
change that is meant to move a certified number, with

    PYTHONPATH=src python tests/test_frozen_tables.py
"""

import csv
import json
import os
import sys

import pytest

import bslq
from bslq import cli
from conftest import make_spec_2d

FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen_verify_tables.json")
FIXTURE = "{dir}/fixture_2x2.json"
ARGS = {
    "2x2": [FIXTURE, "--paths", "1500", "--steps", "50"],
    "S5": ["builtin:S5", "--paths", "200", "--steps", "50"],
    "SX": ["builtin:SX", "--paths", "200", "--steps", "50"],
    "SH": ["builtin:SH", "--paths", "200", "--steps", "100"],
    "SF": ["builtin:SF", "--paths", "200", "--steps", "100"],
}
# name -> (seed, arguments)
OPERATIONS = {**{name: (1, args) for name, args in ARGS.items()},
              "2x2@174": (174, ARGS["2x2"]), "SX@111": (111, ARGS["SX"])}


def verify_table(name: str, workdir: str) -> list[dict]:
    """Rows of ``verify.csv`` for one operation, run through the CLI."""
    bslq.save_scenario(make_spec_2d(), FIXTURE.format(dir=workdir))
    out = os.path.join(workdir, name)
    seed, args = OPERATIONS[name]
    argv = [a.format(dir=workdir) for a in args]
    cli.main(["verify", *argv, "--seed", str(seed), "--out", out])
    with open(os.path.join(out, "verify.csv"), newline="", encoding="utf-8") as fh:
        return [{"check": r["check"], "value": float(r["value"]),
                 "comparator": r["comparator"], "threshold": float(r["threshold"]),
                 "passed": r["passed"] == "1"} for r in csv.DictReader(fh)]


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_verify_table_is_frozen(name, tmp_path, capsys):
    with open(FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)[name]
    rows = verify_table(name, str(tmp_path))
    capsys.readouterr()
    assert [(r["check"], r["comparator"], r["threshold"], r["passed"]) for r in rows] == \
        [(r["check"], r["comparator"], r["threshold"], r["passed"]) for r in frozen]
    for new, old in zip(rows, frozen):
        assert abs(new["value"] - old["value"]) <= 1e-9 * abs(old["value"]) + 1e-13, \
            (new["check"], new["value"], old["value"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tables = {name: verify_table(name, tmp) for name in OPERATIONS}
    with open(FROZEN, "w", encoding="utf-8") as fh:
        json.dump(tables, fh, indent=1)
        fh.write("\n")
    sys.exit(0)
