"""Span tracing of the ``bslq`` modules from outside the library.

``Tracer.install`` wraps every public function defined in a ``bslq``
module, plus a few class attributes on the hot path, and rebinds each
wrapped function under every name that refers to it: a from-import copies
the binding, so ``solve_sigma`` must be replaced in ``riccati``,
``simulate``, ``evaluate``, ``cli`` and the package namespace alike.

Each call records a span ``(id, name, start, end, parent, op, pass)`` in
memory; self time is a span's duration minus that of its child spans.
``MatrixPath.__call__`` runs several hundred thousand times per verify, so
it is kept as an aggregate (count, seconds) per parent span instead of one
span per call; its time still counts as child time of the parent.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("bsde", "cli", "evaluate", "grid", "ode", "oracle", "problem",
          "reduction", "riccati", "simulate")

# Class attributes wrapped besides the module-level functions:
# (layer, class name, attribute, aggregate-only).
CLASS_ATTRS = (
    ("grid", "MatrixPath", "__call__", True),
    ("grid", "AffineProcess", "sample", False),
    ("simulate", "BrownianEnsemble", "generate", False),
    ("simulate", "BrownianEnsemble", "coarsen", False),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(obj) -> int:
    """Bytes of the arrays an object returns, directly or as fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    fields = getattr(obj, "__dict__", {})
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))


def _sample_note(args, kwargs, result):
    proc, W = args[0], _arg(args, kwargs, 1, "W")
    proc_key = hash((proc.a.values.tobytes(), proc.b.values.tobytes()))
    w_key = (W.shape, float(W[:, -1].sum()), float(W[-1].sum()))
    return {"bytes": result.nbytes, "key": [proc_key, repr(w_key)]}


def _path_steps(brownian) -> int:
    return brownian.paths * brownian.grid.steps


# Counts recorded on a span from the call's arguments and result.
NOTES = {
    "ode.integrate": lambda a, k, r: {
        "rk4": a[0].grid.steps * a[0].substeps},
    "grid.AffineProcess.sample": _sample_note,
    "evaluate.path_cost_parts": lambda a, k, r: {
        "elems": _arg(a, k, 1, "Y").shape[0] * _arg(a, k, 0, "spec").grid.steps},
    "simulate.BrownianEnsemble.generate": lambda a, k, r: {
        "incr": _path_steps(r), "bytes": _nbytes(r)},
    "simulate.simulate_dual_sde": lambda a, k, r: {
        "path_steps": _path_steps(_arg(a, k, 3, "brownian")), "bytes": _nbytes(r)},
    "simulate.simulate_forward_closed_loop": lambda a, k, r: {
        "path_steps": _path_steps(_arg(a, k, 3, "brownian")), "bytes": _nbytes(r)},
    "simulate.synthesize": lambda a, k, r: {"bytes": _nbytes(r)},
    "simulate.synthesize_optimal": lambda a, k, r: {"bytes": _nbytes(r.ensemble)},
    "simulate.sample_affine_control": lambda a, k, r: {"bytes": _nbytes(r)},
    "oracle.solve_discrete": lambda a, k, r: {
        "dim": _arg(a, k, 0, "spec").m * (2 ** _arg(a, k, 1, "steps") - 1)},
    "cli.write_csv": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Tracer:
    """In-memory spans for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaf: dict = defaultdict(lambda: [0, 0.0])  # parent id -> [calls, s]
        self.op = None
        self.pass_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None):
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            rec = [sid, name, 0.0, 0.0, stack[-1] if stack else None,
                   tracer.op, tracer.pass_id, None]
            stack.append(sid)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                tracer.spans.append(rec)
            if note is not None:
                rec[7] = note(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def wrap_leaf(self, fn):
        tracer = self

        def leaf(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack = tracer._stack()
                agg = tracer.leaf[stack[-1] if stack else None]
                agg[0] += 1
                agg[1] += dt

        leaf.__wrapped__ = fn
        return leaf

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions and hot class attributes of ``package``."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        holders = list(modules.values()) + [package]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, obj, NOTES.get(name))
                for holder in holders:
                    for hattr, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._set(holder, hattr, wrapped)
        for layer, cls_name, attr, aggregate in CLASS_ATTRS:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[attr]
            if aggregate:
                self._set(cls, attr, self.wrap_leaf(raw))
                continue
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, NOTES.get(name))))
            else:
                self._set(cls, attr, self.wrap(name, raw, NOTES.get(name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "pass", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [dict(zip(keys, rec)) for rec in self.spans],
                "aggregated": [{"name": "grid.MatrixPath.__call__", "parent": p,
                                "calls": c, "seconds": s}
                               for p, (c, s) in self.leaf.items()],
            }, fh)


def self_times(spans: list[list], leaf: dict) -> dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    child = defaultdict(float)
    for rec in spans:
        if rec[4] is not None:
            child[rec[4]] += rec[3] - rec[2]
    return {rec[0]: rec[3] - rec[2] - child[rec[0]] - leaf.get(rec[0], (0, 0.0))[1]
            for rec in spans}


# Metrics whose value is derived from argument shapes, not counted events.
COMPUTED = frozenset({
    "ode.rk4_steps", "ode.rhs_evals", "evaluate.path_cost_elems",
    "simulate.increments", "simulate.path_steps", "simulate.peak_array_bytes",
    "oracle.dense_dim_max",
})


def layer_metrics(tracer: Tracer, pass_id) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and per-module self time of one traced pass."""
    spans = [rec for rec in tracer.spans if rec[6] == pass_id]
    ids = {rec[0] for rec in spans}
    leaf = {p: v for p, v in tracer.leaf.items() if p in ids}
    by_id = {rec[0]: rec for rec in spans}
    selfs = self_times(spans, leaf)

    def ancestors(rec):
        while rec[4] is not None and rec[4] in by_id:
            rec = by_id[rec[4]]
            yield rec[1]

    named = defaultdict(list)
    for rec in spans:
        named[rec[1]].append(rec)

    def calls(name, outside=()):
        return sum(1 for rec in named[name]
                   if not any(a in outside for a in ancestors(rec)))

    def incl(name):
        """Inclusive seconds of the calls not nested in another call of name."""
        return sum(rec[3] - rec[2] for rec in named[name]
                   if name not in ancestors(rec))

    def attr_sum(name, key):
        return sum(rec[7][key] for rec in named[name] if rec[7])

    module_self = defaultdict(float)
    for rec in spans:
        module_self[rec[1].split(".")[0]] += selfs[rec[0]]
    leaf_calls = sum(c for c, _ in leaf.values())
    leaf_s = sum(s for _, s in leaf.values())
    module_self["grid"] += leaf_s

    solve_roots = ("reduction.reduce_problem", "riccati.solve_sigma",
                   "bsde.solve_affine_bsde")
    solve_integrations = sum(
        1 for rec in named["ode.integrate"]
        if any(a in solve_roots for a in ancestors(rec))
        and "bsde.solve_controlled_state" not in ancestors(rec))
    reductions = calls("reduction.reduce_problem")
    perturbations = calls("evaluate.perturbation_identity")
    pert_costs = sum(1 for rec in named["evaluate.path_cost_parts"]
                     if "evaluate.perturbation_identity" in ancestors(rec))
    sample_calls = calls("grid.AffineProcess.sample")
    sample_keys = {tuple(rec[7]["key"]) for rec in named["grid.AffineProcess.sample"]}
    sim_bytes = [rec[7]["bytes"] for name, recs in named.items()
                 if name.startswith("simulate.") for rec in recs
                 if rec[7] and "bytes" in rec[7]]
    rk4 = attr_sum("ode.integrate", "rk4")

    metrics = {
        "ode.integrate_calls": calls("ode.integrate"),
        "ode.rk4_steps": rk4,
        "ode.rhs_evals": 4 * rk4,
        "ode.self_s": module_self["ode"],
        "ode.integrations_per_solve": solve_integrations / reductions if reductions else 0.0,
        "riccati.sigma_s": incl("riccati.solve_sigma"),
        "riccati.h_s": incl("riccati.solve_h"),
        "riccati.forward_s": incl("riccati.solve_forward_riccati"),
        "riccati.sigma_calls": calls("riccati.solve_sigma"),
        "bsde.affine_calls": calls("bsde.solve_affine_bsde",
                                   outside=("bsde.solve_controlled_state",)),
        "bsde.controlled_calls": calls("bsde.solve_controlled_state"),
        "bsde.self_s": module_self["bsde"],
        "reduction.calls": reductions,
        "reduction.self_s": module_self["reduction"],
        "grid.path_calls": leaf_calls,
        "grid.path_s": leaf_s,
        "grid.sample_calls": sample_calls,
        "grid.sample_s": incl("grid.AffineProcess.sample"),
        "grid.sample_bytes": attr_sum("grid.AffineProcess.sample", "bytes"),
        "grid.sample_useful_ratio": len(sample_keys) / sample_calls if sample_calls else 0.0,
        "evaluate.path_cost_calls": calls("evaluate.path_cost_parts"),
        "evaluate.path_cost_s": incl("evaluate.path_cost_parts"),
        "evaluate.path_cost_elems": attr_sum("evaluate.path_cost_parts", "elems"),
        "evaluate.cost_evals_per_perturbation":
            pert_costs / perturbations if perturbations else 0.0,
        "evaluate.perturbation_s": incl("evaluate.perturbation_identity"),
        "evaluate.probe_s": incl("evaluate.convexity_probe"),
        "evaluate.formula_s": incl("evaluate.value_formula"),
        "evaluate.stationarity_s": incl("evaluate.stationarity_residual"),
        "simulate.brownian_s": incl("simulate.BrownianEnsemble.generate"),
        "simulate.increments": attr_sum("simulate.BrownianEnsemble.generate", "incr"),
        "simulate.dual_sde_s": incl("simulate.simulate_dual_sde"),
        "simulate.synthesize_s": incl("simulate.synthesize"),
        "simulate.path_steps": (attr_sum("simulate.simulate_dual_sde", "path_steps")
                                + attr_sum("simulate.simulate_forward_closed_loop",
                                           "path_steps")),
        "simulate.sample_control_s": incl("simulate.sample_affine_control"),
        "simulate.forward_s": incl("simulate.simulate_forward_closed_loop"),
        "simulate.peak_array_bytes": max(sim_bytes, default=0),
        "oracle.solve_calls": calls("oracle.solve_discrete"),
        "oracle.solve_s": incl("oracle.solve_discrete"),
        "oracle.dense_dim_max": max((rec[7]["dim"] for rec in named["oracle.solve_discrete"]
                                     if rec[7]), default=0),
        "oracle.compare_s": incl("oracle.compare"),
        "problem.load_s": incl("problem.load_scenario"),
        "problem.resample_calls": calls("problem.resample"),
        "cli.self_s": module_self["cli"],
        "cli.write_s": incl("cli.write_csv"),
        "cli.csv_bytes": attr_sum("cli.write_csv", "bytes"),
    }
    return metrics, dict(module_self)
