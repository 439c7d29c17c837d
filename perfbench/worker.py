"""One benchmark process: set up, run timed passes over a workload, check.

Started by ``run.py``; not meant to be run by hand.  The process imports
``bslq`` from the checkout's ``src``, writes the scenario files, makes one
warm-up call, then repeats passes over the workload's operations, calling
``bslq.cli.main`` in-process for each, until its time is used.  Each
operation's time is also normalised by a reference kernel timed around it
(see ``reference.py``).  With ``--trace 1`` the second half of the time
runs traced passes.  The result is written as JSON to ``--result``.
"""

from time import perf_counter

T_START = perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True, help="directory holding the bslq package")
    p.add_argument("--work", required=True, help="scratch directory of this process")
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def provenance(np, scipy) -> dict:
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{lib: {f: deps.get(lib, {}).get(f)
                 for f in ("name", "version", "openblas configuration")}
           for lib in ("blas", "lapack")},
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np
    import scipy

    import bslq
    import bslq.cli
    from checks import check_flip, check_oracle, check_simulate, check_verify
    from reference import Reference, normalise
    from workloads import (FIXTURE_2X2, FLIP_CHECK, ORACLE, SIMULATE, VERIFY, WORKLOADS,
                           expand, write_scenarios)

    if os.path.dirname(os.path.abspath(bslq.__file__)) != os.path.join(
            os.path.abspath(args.src), "bslq"):
        print(f"bslq imported from {bslq.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    scen_dir = os.path.join(args.work, "scenarios")
    write_scenarios(bslq, scen_dir)

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = bslq.cli.main(argv)
        except SystemExit as exc:  # argparse usage error
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an escaped exception is a failed operation
            rc = None
            err.write(traceback.format_exc())
        return rc, perf_counter() - t0, out.getvalue(), err.getvalue()

    warm_out = os.path.join(args.work, "warmup")
    rc, _, _, err = call(expand(spec["warmup"], scen_dir, warm_out, args.seed))
    if rc is None:
        print(f"warm-up call raised:\n{err}", file=sys.stderr)
        return 1
    setup_raw_s = perf_counter() - T_START
    setup_ref = statistics.median(Reference("interpreter").time() for _ in range(3))
    result = {"setup_s": normalise(setup_raw_s, setup_ref), "setup_raw_s": setup_raw_s,
              "provenance": provenance(np, scipy)}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    xi_mean = bslq.load_scenario(os.path.join(scen_dir, FIXTURE_2X2)).xi.at_terminal()[0]
    ops = []
    for i, (kind, argv) in enumerate(spec["ops"]):
        out = os.path.join(args.work, f"op{i}")
        ops.append((kind, expand(argv, scen_dir, out, args.seed), out))
    reference = Reference(spec["reference"])
    ref_samples: list[float] = []
    tally = {"attempted": 0, "failed": 0, "failures": [], "value_gap": 0.0,
             "oracle_gap": 0.0}

    def check(kind, argv, out, rc, stdout, stderr):
        if rc is None:
            return False, f"raised: {stderr.strip().splitlines()[-1]}", {}
        if kind == VERIFY:
            return check_verify(rc, out)
        if kind == SIMULATE:
            paths = int(argv[argv.index("--paths") + 1])
            return check_simulate(rc, out, paths, [float(x) for x in xi_mean])
        if kind == ORACLE:
            return check_oracle(rc, stdout)
        if kind == FLIP_CHECK:
            return check_flip(rc, stderr)
        raise ValueError(kind)

    def run_pass(tracer=None) -> tuple[float, float]:
        """(raw, normalised) seconds of one pass over the operations."""
        raw = norm = 0.0
        ref_before = reference.time()
        ref_samples.append(ref_before)
        for i, (kind, argv, out) in enumerate(ops):
            shutil.rmtree(out, ignore_errors=True)  # no stale output can pass a check
            # Start every operation from a collected heap, as a fresh CLI process
            # would: garbage left in reference cycles by earlier operations
            # otherwise makes the peak RSS depend on how many passes ran.
            gc.collect()
            if tracer is not None:
                tracer.op = i
            rc, secs, stdout, stderr = call(argv)
            ref_after = reference.time()
            ref_samples.append(ref_after)
            raw += secs
            norm += normalise(secs, 0.5 * (ref_before + ref_after))
            ref_before = ref_after
            ok, reason, info = check(kind, argv, out, rc, stdout, stderr)
            tally["attempted"] += 1
            if not ok:
                tally["failed"] += 1
                tally["failures"].append(f"{' '.join(argv)}: {reason}")
            for key in ("value_gap", "oracle_gap"):
                tally[key] = max(tally[key], info.get(key, 0.0))
        return raw, norm

    def timed_passes(budget: float, tracer=None) -> list[tuple[float, float]]:
        passes = []
        t0 = perf_counter()
        while True:
            if tracer is not None:
                tracer.pass_id = len(passes)
            passes.append(run_pass(tracer))
            if perf_counter() - t0 + statistics.median(p[0] for p in passes) > budget:
                return passes

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(budget)
    result.update(passes=passes, wall_s=statistics.median(p[1] for p in passes),
                  wall_raw_s=statistics.median(p[0] for p in passes),
                  ref_samples=list(ref_samples))
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(bslq)
        try:
            traced = timed_passes(budget, tracer)
        finally:
            tracer.uninstall()
        tables = [layer_metrics(tracer, i) for i in range(len(traced))]
        layers = {name: statistics.median(t[0][name] for t in tables)
                  for name in tables[0][0]}
        modules = {name: statistics.median(t[1].get(name, 0.0) for t in tables)
                   for name in set().union(*(t[1] for t in tables))}
        layers["trace.overhead_s"] = statistics.median(p[1] for p in traced) - result["wall_s"]
        result.update(traced_passes=traced, layers=layers, module_self_s=modules,
                      spans=len(tracer.spans))
        tracer.dump(os.path.join(args.work, "spans.json"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(tally)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
