"""Benchmark of the bslq command line: one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-2x2 --seed 1 --seconds 25 --trace 0

The workload runs in a child process (``worker.py``) that imports ``bslq``
from the checkout's ``src`` and calls ``bslq.cli.main`` once per operation.
With ``--trace 0`` two more child processes only set up, and the result
carries the end-to-end metrics ``wall_s`` (median pass time), ``setup_s``
(median over the three set-ups) and ``peak_rss_mb``; both times are
normalised to the speed of a reference kernel (``reference.py``).  With ``--trace 1``
the child also runs traced passes and the result carries the per-layer
metrics.  The last line of standard output is the result as one JSON
object; the lines before it give provenance and the per-module split.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify-2x2", "verify-scalar", "simulate-2x2", "oracle-tree")
SETUP_RUNS = 3      # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170   # the whole run must end within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bslq", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_worker(args, work: str, setup_only: bool, deadline: float) -> dict:
    result = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", SRC, "--work", work, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark process did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark process exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "bslq", "__init__.py")):
        print(f"no bslq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from tracing import COMPUTED

    base = os.path.join(HERE, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(base, ignore_errors=True)
    setups = []
    if not args.trace:
        for i in range(SETUP_RUNS - 1):
            setups.append(run_worker(args, os.path.join(base, f"setup{i}"), True,
                                     deadline)["setup_s"])
    res = run_worker(args, os.path.join(base, "main"), False, deadline)
    setups.append(res["setup_s"])
    for op_dir in glob.glob(os.path.join(base, "*", "op*")) + glob.glob(
            os.path.join(base, "*", "warmup")):
        shutil.rmtree(op_dir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **source_identity(), **res["provenance"]}
    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"passes {len(res['passes'])}, raw and normalised s: "
          + " ".join(f"{raw:.3f}/{norm:.3f}" for raw, norm in res["passes"]))
    print(f"wall_raw_s {res['wall_raw_s']:.4f}  setup_raw_s {res['setup_raw_s']:.4f}")
    print(f"value_gap {res['value_gap']:.6g}  oracle_gap {res['oracle_gap']:.6g}")
    for failure in res["failures"][:20]:
        print(f"FAILED {failure}")

    if args.trace:
        total = sum(res["module_self_s"].values())
        print("module self-time share of the traced pass:")
        for name, secs in sorted(res["module_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:10s} {secs:9.4f} s  {100 * secs / total:5.1f} %")
        metrics = {name: metric(value, unit_of(name, COMPUTED))
                   for name, value in res["layers"].items()}
        metrics["value_gap"] = metric(res["value_gap"], "cost")
        metrics["oracle_gap"] = metric(res["oracle_gap"], "cost")
    else:
        metrics = {
            "wall_s": metric(res["wall_s"], "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    with open(os.path.join(base, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "setups": setups, "result": res,
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str, computed) -> str:
    if name.endswith("_s"):
        return "s"
    unit = "B" if name.endswith("bytes") else "count"
    if name.endswith(("_ratio", "_per_solve", "_per_perturbation")):
        unit = "ratio"
    return f"{unit}-computed" if name in computed else unit


if __name__ == "__main__":
    sys.exit(main())
