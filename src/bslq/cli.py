"""Command-line front end: load -> reduce -> solve -> simulate -> verify.

Subcommands mirror the pipeline stages; every output is CSV (RFC 4180 line
endings, '.' decimal separator, 17 significant digits) so runs are diffable
and plottable.  Exit codes: 0 success, 1 contract violation, 2 usage or
input error.  All outputs are deterministic functions of (scenario, flags).
"""

from __future__ import annotations

import argparse
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
from .simulate import BrownianEnsemble, simulate_forward_closed_loop, synthesize_optimal


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row) + "\r\n")


def _matrix_header(name: str, rows: int, cols: int) -> list[str]:
    if rows * cols == 1:
        return [name]
    return [f"{name}_{i}{j}" for i in range(rows) for j in range(cols)]


def _vector_header(name: str, dim: int) -> list[str]:
    if dim == 1:
        return [name]
    return [f"{name}_{i}" for i in range(dim)]


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
    t = spec.grid.nodes
    if isinstance(spec, ForwardProblemSpec):
        psol = solve_forward_riccati(spec, args.substeps)
        n = spec.n
        write_csv(os.path.join(out, "p.csv"),
                  ["t"] + _matrix_header("P", n, n),
                  ([t[k]] + list(psol.P[k].ravel()) for k in range(len(t))))
        print(f"P(0) = {psol.P[0].ravel().tolist()}")
        return 0
    reduced = reduce_problem(spec, args.substeps)
    sigma = solve_sigma(reduced, args.substeps)
    bsde = solve_affine_bsde(assemble_drift(reduced, sigma), spec.xi)
    n = spec.n
    write_csv(os.path.join(out, "sigma.csv"),
              ["t"] + _matrix_header("Sigma", n, n),
              ([t[k]] + list(sigma.Sigma[k].ravel()) for k in range(len(t))))
    write_csv(os.path.join(out, "h.csv"),
              ["t"] + _matrix_header("H", n, n),
              ([t[k]] + list(reduced.h.H[k].ravel()) for k in range(len(t))))
    aphi, bphi = bsde.phi.node_parts()
    write_csv(os.path.join(out, "phi.csv"),
              ["t"] + _vector_header("phi_a", n) + _vector_header("phi_b", n),
              ([t[k]] + list(aphi[k]) + list(bphi[k]) for k in range(len(t))))
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
    t = spec.grid.nodes
    n = spec.n
    write_csv(os.path.join(out, "h.csv"),
              ["t"] + _matrix_header("H", n, n),
              ([t[k]] + list(reduced.h.H[k].ravel()) for k in range(len(t))))
    print(f"constant shift E<H(T) xi, xi> = {_fmt(reduced.constant_shift)}")
    return 0


def cmd_simulate(args) -> int:
    if args.paths < 1:
        raise ValueError("--paths must be at least 1")
    spec = _load(args)
    out = _ensure_out(args.out)
    t = spec.grid.nodes
    if isinstance(spec, ForwardProblemSpec):
        psol = solve_forward_riccati(spec, args.substeps)
        adj = solve_eta_zeta(spec, psol)
        brownian = BrownianEnsemble.generate(args.seed, args.paths, spec.grid)
        fens = simulate_forward_closed_loop(spec, psol, adj, brownian)
        fields = {"X": fens.X, "v": fens.v}
    else:
        brownian = BrownianEnsemble.generate(args.seed, args.paths, spec.grid)
        synth = synthesize_optimal(spec, brownian, args.substeps)
        ens = synth.ensemble
        fields = {"X": ens.X, "Y": ens.Y, "Z": ens.Z, "u": ens.u}

    header = ["t"]
    columns = []
    for name, arr in fields.items():
        dim = arr.shape[-1]
        for i in range(dim):
            suffix = f"_{i}" if dim > 1 else ""
            header += [f"{name}{suffix}_mean", f"{name}{suffix}_std"]
            columns.append((arr, i))
    rows = []
    for k in range(len(t)):
        row = [t[k]]
        for arr, i in columns:
            row += [arr[:, k, i].mean(), arr[:, k, i].std()]
        rows.append(row)
    write_csv(os.path.join(out, "summary.csv"), header, rows)

    if args.per_path:
        header = ["path", "t"] + [
            f"{name}{f'_{i}' if arr.shape[-1] > 1 else ''}"
            for name, arr in fields.items() for i in range(arr.shape[-1])
        ]
        rows = []
        for p in range(args.paths):
            for k in range(len(t)):
                row = [float(p), t[k]]
                for name, arr in fields.items():
                    row += list(arr[p, k, :])
                rows.append(row)
        write_csv(os.path.join(out, "paths.csv"), header, rows)
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

    def common(p, paths=True, tree=False):
        p.add_argument("scenario", help="builtin:NAME or a scenario JSON file")
        p.add_argument("--steps", type=int, default=200, help="time steps")
        p.add_argument("--substeps", type=int, default=4,
                       help="ODE substeps per interval")
        if paths:
            p.add_argument("--paths", type=int, default=10000)
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--workers", type=int, default=1,
                           help="accepted for compatibility; has no effect")
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
    common(p)
    p.add_argument("--out", default="out")
    p.add_argument("--per-path", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("value", help="print the closed-form optimal value")
    common(p, paths=False)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("verify", help="run the verification table")
    common(p)
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
