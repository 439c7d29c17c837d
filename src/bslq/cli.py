"""Command-line front end: load -> reduce -> solve -> simulate -> verify.

Subcommands mirror the pipeline stages; every output is CSV (RFC 4180 line
endings, '.' decimal separator, 17 significant digits) so runs are diffable
and plottable.  Exit codes: 0 success, 1 contract violation, 2 usage or
input error.  All outputs are deterministic functions of (scenario, flags).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import evaluate, oracle
from .bsde import assemble_drift, solve_affine_bsde, solve_eta_zeta
from .errors import (ConsistencyError, ConvexityError, IntegrationError,
                     PositivityError, ReductionError, ScenarioError,
                     SimulationError, SingularityError, SpecValidationError)
from .problem import ForwardProblemSpec, load_scenario, resample, save_scenario
from .reduction import reduce_problem
from .riccati import solve_forward_riccati, solve_sigma
from .simulate import simulate_summary


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_rows(fh, rows) -> None:
    for row in rows:
        fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell)
                          for cell in row) + "\r\n")


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(fh, [header])
        _write_rows(fh, rows)


def _matrix_header(name: str, rows: int, cols: int) -> list[str]:
    if rows * cols == 1:
        return [name]
    return [f"{name}_{i}{j}" for i in range(rows) for j in range(cols)]


def _vector_header(name: str, dim: int) -> list[str]:
    if dim == 1:
        return [name]
    return [f"{name}_{i}" for i in range(dim)]


def _columns(fields: dict[str, int]) -> list[str]:
    return [col for name, dim in fields.items() for col in _vector_header(name, dim)]


def _write_nodes(out: str, name: str, t, header: list[str], table) -> None:
    """``name``.csv in ``out``: one row (t_k, table_k flattened) per node."""
    write_csv(os.path.join(out, name + ".csv"), ["t"] + header,
              ([t[k]] + list(np.ravel(table[k])) for k in range(len(t))))


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _load(args) -> object:
    spec = load_scenario(args.scenario)
    if args.steps != spec.grid.steps:
        spec = resample(spec, args.steps)
    return spec


def cmd_solve(args) -> int:
    spec = _load(args)
    out = _ensure_out(args.out)
    t, n = spec.grid.nodes, spec.n
    if isinstance(spec, ForwardProblemSpec):
        psol = solve_forward_riccati(spec, args.substeps)
        _write_nodes(out, "p", t, _matrix_header("P", n, n), psol.P)
        print(f"P(0) = {psol.P[0].ravel().tolist()}")
        return 0
    reduced = reduce_problem(spec, args.substeps)
    sigma = solve_sigma(reduced, args.substeps)
    bsde = solve_affine_bsde(assemble_drift(reduced, sigma), spec.xi)
    _write_nodes(out, "sigma", t, _matrix_header("Sigma", n, n), sigma.Sigma)
    _write_nodes(out, "h", t, _matrix_header("H", n, n), reduced.h.H)
    aphi, bphi = bsde.phi.node_parts()
    _write_nodes(out, "phi", t, _vector_header("phi_a", n) + _vector_header("phi_b", n),
                 np.concatenate((aphi, bphi), axis=-1))
    print(f"Sigma(0) = {sigma.Sigma[0].ravel().tolist()}")
    print(f"phi(0) = {aphi[0].tolist()} + {bphi[0].tolist()} W")
    return 0


def cmd_reduce(args) -> int:
    spec = _load(args)
    if isinstance(spec, ForwardProblemSpec):
        print("reduce applies to backward scenarios only", file=sys.stderr)
        return 2
    out = _ensure_out(args.out)
    reduced = reduce_problem(spec, args.substeps)
    save_scenario(reduced.base, os.path.join(out, "reduced_scenario.json"))
    _write_nodes(out, "h", spec.grid.nodes, _matrix_header("H", spec.n, spec.n), reduced.h.H)
    print(f"constant shift E<H(T) xi, xi> = {_fmt(reduced.constant_shift)}")
    return 0


def cmd_simulate(args) -> int:
    if args.paths < 1:
        raise ValueError("--paths must be at least 1")
    spec = _load(args)
    out = _ensure_out(args.out)
    t = spec.grid.nodes
    paths_csv = os.path.join(out, "paths.csv")
    fh = open(paths_csv, "w", encoding="utf-8", newline="") if args.per_path else None

    def per_block(first, outputs):
        if first == 0:
            _write_rows(fh, [["path", "t"] + _columns(
                {name: arr.shape[-1] for name, arr in outputs.items()})])
        block = np.concatenate(list(outputs.values()), axis=-1)
        _write_rows(fh, ([float(first + p), t[k]] + list(block[p, k])
                         for p in range(len(block)) for k in range(len(t))))

    try:
        with fh or contextlib.nullcontext():
            fields, mean, std = simulate_summary(spec, args.seed, args.paths, args.substeps,
                                                 per_block if fh else None, args.workers)
    except BaseException:
        if fh is not None:  # leave no truncated paths.csv behind
            os.remove(paths_csv)
        raise
    header = ["t"] + [f"{c}_{stat}" for c in _columns(fields) for stat in ("mean", "std")]
    write_csv(os.path.join(out, "summary.csv"), header,
              ([t[k]] + list(np.stack((mean[k], std[k]), axis=-1).ravel())
               for k in range(len(t))))
    print(f"wrote {os.path.join(out, 'summary.csv')}")
    return 0


def cmd_value(args) -> int:
    spec = _load(args)
    if isinstance(spec, ForwardProblemSpec):
        psol = solve_forward_riccati(spec, args.substeps)
        adjoint = solve_eta_zeta(spec, psol)
        print(f"value = {_fmt(evaluate.forward_value_formula(spec, psol, adjoint))}")
        print(f"  <P(0) x, x> = {_fmt(spec.x0 @ psol.P[0] @ spec.x0)}")
        print(f"  eta(0) deterministic part = {adjoint.phi.a.node_values()[0].tolist()}")
        return 0
    value, reduced, sigma, bsde = evaluate.solve_value(spec, args.substeps)
    aphi, _ = bsde.phi.node_parts()
    print(f"value = {_fmt(value)}")
    print(f"  phi(0) deterministic part = {aphi[0].tolist()}")
    print(f"  Sigma(0) = {sigma.Sigma[0].ravel().tolist()}")
    print(f"  constant shift = {_fmt(reduced.constant_shift)}")
    return 0


def cmd_verify(args) -> int:
    if args.paths < 2:
        raise ValueError("--paths must be at least 2 (a standard error needs two paths)")
    if args.steps < 2:
        raise ValueError("--steps must be at least 2 (the residual checks need an "
                         "interior node)")
    if args.trials is not None and args.trials < 1:
        raise ValueError("--trials must be at least 1")
    spec = _load(args)
    backward = {k: v for k, v in (("trials", args.trials), ("eps_grid", args.eps_grid))
                if v is not None}
    if backward and isinstance(spec, ForwardProblemSpec):
        flags = ", ".join("--" + k.replace("_", "-") for k in backward)
        raise ValueError(f"{flags}: not used by forward scenarios")
    if args.eps_grid is not None:
        backward["eps_grid"] = tuple(float(e) for e in args.eps_grid.split(","))
    out = _ensure_out(args.out) if args.out else None
    result = evaluate.verify(spec, paths=args.paths, seed=args.seed,
                             substeps=args.substeps, **backward)
    name_w = max(len(r.name) for r in result.rows)
    print(f"{'check':<{name_w}}  {'value':>13}  {'threshold':>13}  verdict")
    for r in result.rows:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{name_w}}  {r.value:13.6g}  "
              f"{r.comparator}{r.threshold:12.6g}  {verdict}")
    if out:
        write_csv(os.path.join(out, "verify.csv"),
                  ["check", "value", "comparator", "threshold", "passed"],
                  ([r.name, r.value, r.comparator, r.threshold,
                    "1" if r.passed else "0"] for r in result.rows))
    if not result.passed:
        failed = ", ".join(r.name for r in result.rows if not r.passed)
        print(f"violated: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_oracle(args) -> int:
    spec = _load(args)
    if isinstance(spec, ForwardProblemSpec):
        print("oracle applies to backward scenarios only", file=sys.stderr)
        return 2
    out = _ensure_out(args.out) if args.out else None
    sol = oracle.solve_discrete(spec, args.tree_steps)
    print(f"steps = {sol.steps}")
    print(f"hessian min eigenvalue = {_fmt(sol.hessian_min_eig)}")
    if not sol.convex:
        print("discrete problem nonconvex", file=sys.stderr)
        return 1
    print(f"value = {_fmt(sol.value)}")
    print(f"gradient norm = {_fmt(sol.gradient_norm)}")
    if sol.singular:
        print("warning: normal equations near-singular (non-unique optimum)")
    if out:
        write_csv(os.path.join(out, "controls.csv"),
                  ["node", "level", "t", "W"] + _vector_header("u", spec.m),
                  ([float(i), float(nd.level), nd.t, nd.w]
                   + list(sol.control[nd.index:nd.index + spec.m])
                   for i, nd in enumerate(sol.nodes)))
    if args.compare:
        value = evaluate.solve_value(spec, args.substeps)[0]
        comp = oracle.compare(value, spec, solved={sol.steps: sol.value})
        print(f"formula value = {_fmt(value)}")
        for N, v, gap in zip(comp.steps, comp.values, comp.gaps):
            print(f"  N={N:3d}  value={v:.8f}  gap={gap:.2e}")
        print(f"extrapolated gap = {comp.extrapolated_gap:.2e} "
              f"(monotone: {comp.monotone})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bslq",
        description="Backward stochastic LQ control: solve, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, paths=True, tree=False, workers=None):
        p.add_argument("scenario", help="builtin:NAME or a scenario JSON file")
        p.add_argument("--steps", type=int, default=200, help="time steps")
        p.add_argument("--substeps", type=int, default=4,
                       help="ODE substeps per interval")
        if paths:
            p.add_argument("--paths", type=int, default=10000)
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--workers", type=int, default=1, help=workers)
        if tree:
            p.add_argument("--tree-steps", dest="tree_steps", type=int, default=8,
                           help="binomial tree levels (<= 12)")

    p = sub.add_parser("solve", help="dump Riccati, shift and BSDE paths as CSV")
    common(p, paths=False)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="emit the canonical-form scenario and H")
    common(p, paths=False)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="simulate the synthesized closed loop")
    common(p, workers="processes that simulate the path blocks, at most one per CPU "
                      "(not with --per-path); the output does not depend on it")
    p.add_argument("--out", default="out")
    p.add_argument("--per-path", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("value", help="print the closed-form optimal value")
    common(p, paths=False)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("verify", help="run the verification table")
    common(p, workers="must be at least 1; verify runs in one process whatever its value")
    p.add_argument("--trials", type=int, default=None,
                   help="controls sampled by the convexity probe (default 16; "
                        "backward scenarios only)")
    p.add_argument("--eps-grid", default=None,
                   help="perturbation sizes (default -1,-0.5,-0.1,0.1,0.5,1; "
                        "backward scenarios only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="solve the binomial-tree discretisation")
    common(p, paths=False, tree=True)
    p.add_argument("--out", default=None)
    p.add_argument("--compare", action="store_true",
                   help="gap table against the formula value")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.substeps < 1:            # checked before any command prints
            raise ValueError(f"substeps must be >= 1, got {args.substeps}")
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (ScenarioError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReductionError, SingularityError, PositivityError,
            SimulationError, IntegrationError, ConsistencyError,
            ConvexityError) as exc:
        # The scenario parsed but violates a solvability contract.
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # OSError: an output that cannot be created or written, e.g. an --out
        # naming an existing file.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
