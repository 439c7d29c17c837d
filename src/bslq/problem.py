"""Problem data for backward and forward stochastic LQ control.

A backward problem consists of the controlled linear BSDE

    dY = (A Y + B u + C Z + f) dt + Z dW,      Y(T) = xi,

and the quadratic cost

    J(xi; u) = E[ <G Y(0), Y(0)> + 2 <g, Y(0)>
                  + int_0^T <blocked(Q, S, R) (Y, Z, u), (Y, Z, u)>
                  + 2 <(q, rho1, rho2), (Y, Z, u)> dt ],

where the blocked weight [[Q, S1^T, S2^T], [S1, R11, R12], [S2, R21, R22]]
is symmetric but need not be definite.  The forward problem is the classical
controlled SDE with terminal-plus-running quadratic cost; it is used both as
a standalone solver branch and as scaffolding for verification.

Stochastic data (f, q, rho1, rho2, xi and the forward b, sigma, qTilde,
rhoTilde) is restricted to the affine class a(t) + b(t) W(t), which keeps the
auxiliary backward equations exactly solvable while still exercising every
noise-dependent term.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError, SpecValidationError
from .grid import CONSTANT, PIECEWISE, SAMPLED, AffineProcess, MatrixPath, TimeGrid

SYMMETRY_TOL = 1e-12

BUILTIN_NAMES = ("S1", "S2", "S4", "S5", "SX", "SH", "SF")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Coefficients of a backward stochastic LQ problem."""

    n: int
    m: int
    grid: TimeGrid
    A: MatrixPath
    B: MatrixPath
    C: MatrixPath
    f: AffineProcess
    G: np.ndarray
    g: np.ndarray
    Q: MatrixPath
    S1: MatrixPath
    S2: MatrixPath
    R11: MatrixPath
    R12: MatrixPath
    R21: MatrixPath
    R22: MatrixPath
    q: AffineProcess
    rho1: AffineProcess
    rho2: AffineProcess
    xi: AffineProcess

    def __post_init__(self):
        object.__setattr__(self, "G", np.asarray(self.G, dtype=float))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))

    def replace(self, **kw) -> "ProblemSpec":
        return dataclasses.replace(self, **kw)

    def coefficient_bound(self) -> float:
        """Largest sup-norm over the state-equation coefficients."""
        return max(p.max_abs() for p in (self.A, self.B, self.C))


@dataclass(frozen=True, eq=False)
class ForwardProblemSpec:
    """Coefficients of a forward stochastic LQ problem."""

    n: int
    m: int
    grid: TimeGrid
    cA: MatrixPath
    cB: MatrixPath
    cC: MatrixPath
    cD: MatrixPath
    b: AffineProcess
    sigma: AffineProcess
    cG: np.ndarray
    gTilde: np.ndarray
    cQ: MatrixPath
    cS: MatrixPath
    cR: MatrixPath
    qTilde: AffineProcess
    rhoTilde: AffineProcess
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cG", np.asarray(self.cG, dtype=float))
        object.__setattr__(self, "gTilde", np.asarray(self.gTilde, dtype=float))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    def replace(self, **kw) -> "ForwardProblemSpec":
        return dataclasses.replace(self, **kw)


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: a list of violations, empty when OK."""

    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _check_finite(name: str, path: MatrixPath, out: list[str]) -> None:
    vals = path.values
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        k = 0 if path.kind == CONSTANT else int(bad[0])
        out.append(f"{name}: non-finite sample at t={k * path.grid.dt:g}")


def _check_shape(name: str, path: MatrixPath, shape: tuple, out: list[str]) -> None:
    if path.shape != shape:
        out.append(f"{name}: shape {path.shape} != expected {shape}")


def _check_symmetric_path(name: str, path: MatrixPath, out: list[str]) -> None:
    vals = path.node_values()
    dev = np.max(np.abs(vals - np.swapaxes(vals, -1, -2)), axis=(-1, -2))
    worst = int(np.argmax(dev))
    if dev[worst] > SYMMETRY_TOL:
        out.append(
            f"{name}: not symmetric at t={worst * path.grid.dt:g} "
            f"(deviation {dev[worst]:.3e})"
        )


def _check_affine(name: str, proc: AffineProcess, dim: int, out: list[str]) -> None:
    _check_shape(f"{name}.a", proc.a, (dim,), out)
    _check_shape(f"{name}.b", proc.b, (dim,), out)
    _check_finite(f"{name}.a", proc.a, out)
    _check_finite(f"{name}.b", proc.b, out)


def validate(spec) -> ValidationReport:
    """Collect every structural violation of a problem spec.

    Violations are data, not exceptions: the report lists all symmetry,
    dimension and finiteness problems with their location.
    """
    if isinstance(spec, ForwardProblemSpec):
        return _validate_forward(spec)
    out: list[str] = []
    n, m = spec.n, spec.m
    for name, path, shape in (
        ("A", spec.A, (n, n)),
        ("B", spec.B, (n, m)),
        ("C", spec.C, (n, n)),
        ("Q", spec.Q, (n, n)),
        ("S1", spec.S1, (n, n)),
        ("S2", spec.S2, (m, n)),
        ("R11", spec.R11, (n, n)),
        ("R12", spec.R12, (n, m)),
        ("R21", spec.R21, (m, n)),
        ("R22", spec.R22, (m, m)),
    ):
        _check_shape(name, path, shape, out)
        _check_finite(name, path, out)
    if spec.G.shape != (n, n):
        out.append(f"G: shape {spec.G.shape} != expected {(n, n)}")
    elif np.max(np.abs(spec.G - spec.G.T), initial=0.0) > SYMMETRY_TOL:
        out.append("G: not symmetric")
    if not np.all(np.isfinite(spec.G)):
        out.append("G: non-finite entry")
    if spec.g.shape != (n,):
        out.append(f"g: shape {spec.g.shape} != expected {(n,)}")
    if not np.all(np.isfinite(spec.g)):
        out.append("g: non-finite entry")
    for name, proc, dim in (
        ("f", spec.f, n),
        ("q", spec.q, n),
        ("rho1", spec.rho1, n),
        ("rho2", spec.rho2, m),
        ("xi", spec.xi, n),
    ):
        _check_affine(name, proc, dim, out)

    if not out:
        for name, path in (("Q", spec.Q), ("R11", spec.R11), ("R22", spec.R22)):
            _check_symmetric_path(name, path, out)
        r12 = spec.R12.node_values()
        r21 = spec.R21.node_values()
        dev = np.max(np.abs(r12 - np.swapaxes(r21, -1, -2)), axis=(-1, -2))
        worst = int(np.argmax(dev))
        if dev[worst] > SYMMETRY_TOL:
            out.append(
                f"R12 != R21^T at t={worst * spec.grid.dt:g} "
                f"(deviation {dev[worst]:.3e})"
            )
    return ValidationReport(out)


def _validate_forward(spec: ForwardProblemSpec) -> ValidationReport:
    out: list[str] = []
    n, m = spec.n, spec.m
    for name, path, shape in (
        ("cA", spec.cA, (n, n)),
        ("cB", spec.cB, (n, m)),
        ("cC", spec.cC, (n, n)),
        ("cD", spec.cD, (n, m)),
        ("cQ", spec.cQ, (n, n)),
        ("cS", spec.cS, (m, n)),
        ("cR", spec.cR, (m, m)),
    ):
        _check_shape(name, path, shape, out)
        _check_finite(name, path, out)
    if np.max(np.abs(spec.cG - spec.cG.T), initial=0.0) > SYMMETRY_TOL:
        out.append("cG: not symmetric")
    for name, proc, dim in (
        ("b", spec.b, n),
        ("sigma", spec.sigma, n),
        ("qTilde", spec.qTilde, n),
        ("rhoTilde", spec.rhoTilde, m),
    ):
        _check_affine(name, proc, dim, out)
    if spec.x0.shape != (n,):
        out.append(f"x0: shape {spec.x0.shape} != expected {(n,)}")
    if not out:
        for name, path in (("cQ", spec.cQ), ("cR", spec.cR)):
            _check_symmetric_path(name, path, out)
    return ValidationReport(out)


def homogeneous(spec: ProblemSpec) -> ProblemSpec:
    """The companion problem with f, g, q, rho1, rho2 and xi set to zero.

    The weights (G, Q, S, R) are kept; this is the functional whose
    nonnegativity characterises solvability and whose uniform positivity
    is probed by :func:`bslq.evaluate.convexity_probe`.
    """
    grid, n, m = spec.grid, spec.n, spec.m
    return spec.replace(
        f=AffineProcess.zero((n,), grid),
        g=np.zeros(n),
        q=AffineProcess.zero((n,), grid),
        rho1=AffineProcess.zero((n,), grid),
        rho2=AffineProcess.zero((m,), grid),
        xi=AffineProcess.zero((n,), grid),
    )


# ---------------------------------------------------------------------------
# Built-in benchmark scenarios
# ---------------------------------------------------------------------------


def _scalar_backward(grid: TimeGrid, **overrides) -> ProblemSpec:
    """Scalar template: every coefficient zero except B = R22 = 1."""
    zero_mat = MatrixPath.constant([[0.0]], grid)
    zero_proc = AffineProcess.zero((1,), grid)
    fields = dict(
        n=1,
        m=1,
        grid=grid,
        A=zero_mat,
        B=MatrixPath.constant([[1.0]], grid),
        C=zero_mat,
        f=zero_proc,
        G=np.zeros((1, 1)),
        g=np.zeros(1),
        Q=zero_mat,
        S1=zero_mat,
        S2=zero_mat,
        R11=zero_mat,
        R12=zero_mat,
        R21=zero_mat,
        R22=MatrixPath.constant([[1.0]], grid),
        q=zero_proc,
        rho1=zero_proc,
        rho2=zero_proc,
        xi=zero_proc,
    )
    fields.update(overrides)
    return ProblemSpec(**fields)


def builtin_scenario(name: str, steps: int = 200, c: float = 1.0, x0: float = 1.0):
    """Construct a named benchmark on a fresh grid with the given step count.

    The scalar backward benchmarks all have T = 1, B = R22 = 1 and differ in
    the weights and terminal value; SF is the scalar forward fixture.
    """
    grid = TimeGrid(1.0, steps)
    one = MatrixPath.constant([[1.0]], grid)
    w_terminal = AffineProcess.of_constants([0.0], [1.0], grid)
    if name == "S1":
        return _scalar_backward(grid)
    if name == "S2":
        return _scalar_backward(
            grid, g=np.array([1.0]), xi=AffineProcess.of_constants([c], [0.0], grid)
        )
    if name == "S4":
        return _scalar_backward(grid, R11=one, xi=w_terminal)
    if name == "S5":
        return _scalar_backward(
            grid, R11=MatrixPath.constant([[-0.5]], grid), xi=w_terminal
        )
    if name == "SX":
        half = MatrixPath.constant([[0.5]], grid)
        return _scalar_backward(grid, R11=one, R12=half, R21=half, xi=w_terminal)
    if name == "SH":
        return _scalar_backward(
            grid, Q=one, xi=AffineProcess.of_constants([c], [0.0], grid)
        )
    if name == "SF":
        zero_mat = MatrixPath.constant([[0.0]], grid)
        zero_proc = AffineProcess.zero((1,), grid)
        return ForwardProblemSpec(
            n=1,
            m=1,
            grid=grid,
            cA=zero_mat,
            cB=one,
            cC=zero_mat,
            cD=zero_mat,
            b=zero_proc,
            sigma=zero_proc,
            cG=np.array([[1.0]]),
            gTilde=np.zeros(1),
            cQ=zero_mat,
            cS=zero_mat,
            cR=one,
            qTilde=zero_proc,
            rhoTilde=zero_proc,
            x0=np.array([x0]),
        )
    raise ScenarioError(f"unknown builtin scenario {name!r}")


# ---------------------------------------------------------------------------
# Scenario files (JSON)
# ---------------------------------------------------------------------------

_BACKWARD_FIELDS = (
    "A", "B", "C", "f", "G", "g", "Q", "S1", "S2",
    "R11", "R12", "R21", "R22", "q", "rho1", "rho2", "xi",
)
_FORWARD_FIELDS = (
    "cA", "cB", "cC", "cD", "b", "sigma", "cG", "gTilde",
    "cQ", "cS", "cR", "qTilde", "rhoTilde", "x0",
)
_AFFINE_FIELDS = {"f", "q", "rho1", "rho2", "xi", "b", "sigma", "qTilde", "rhoTilde"}
_HEADER_FIELDS = ("kind", "n", "m", "T", "steps")


def _parse_path(name: str, entry, shape: tuple, grid: TimeGrid) -> MatrixPath:
    if isinstance(entry, (int, float)):
        if shape not in ((1,), (1, 1)):
            raise ScenarioError(f"{name}: scalar entry requires dimension 1")
        return MatrixPath.constant(np.full(shape, float(entry)), grid)
    if isinstance(entry, list):
        arr = np.asarray(entry, dtype=float)
        if arr.shape != shape:
            raise ScenarioError(f"{name}: shape {arr.shape} != expected {shape}")
        return MatrixPath.constant(arr, grid)
    if isinstance(entry, dict):
        unknown = set(entry) - {"t", "values", "kind"}
        if unknown:
            raise ScenarioError(f"{name}: unknown keys {sorted(unknown)}")
        kind = entry.get("kind", SAMPLED)
        if kind not in (SAMPLED, PIECEWISE):
            raise ScenarioError(f"{name}: kind must be {SAMPLED!r} or {PIECEWISE!r}")
        if "t" not in entry or "values" not in entry:
            raise ScenarioError(f"{name}: {kind} entry needs 't' and 'values'")
        t = np.asarray(entry["t"], dtype=float)
        vals = np.asarray(entry["values"], dtype=float)
        if t.shape != (grid.steps + 1,) or np.max(np.abs(t - grid.nodes)) > 1e-12:
            raise ScenarioError(f"{name}: sample times do not match the grid")
        if vals.shape != (grid.steps + 1,) + shape:
            raise ScenarioError(
                f"{name}: values shape {vals.shape} != expected "
                f"{(grid.steps + 1,) + shape}"
            )
        return MatrixPath(kind, vals, grid)
    raise ScenarioError(f"{name}: invalid entry of type {type(entry).__name__}")


def _parse_affine(name: str, entry, dim: int, grid: TimeGrid) -> AffineProcess:
    if isinstance(entry, dict) and ("a" in entry or "b" in entry):
        unknown = set(entry) - {"a", "b"}
        if unknown:
            raise ScenarioError(f"{name}: unknown keys {sorted(unknown)}")
        a = _parse_path(f"{name}.a", entry.get("a", 0.0 if dim == 1 else [0.0] * dim),
                        (dim,), grid)
        b = _parse_path(f"{name}.b", entry.get("b", 0.0 if dim == 1 else [0.0] * dim),
                        (dim,), grid)
        return AffineProcess(a, b)
    return AffineProcess.deterministic(_parse_path(name, entry, (dim,), grid))


def load_scenario(source: str):
    """Load a problem from ``builtin:NAME`` or a JSON scenario file.

    The returned spec always passes :func:`validate`; a failed parse raises
    :class:`ScenarioError` naming the offending field, a failed validation
    raises :class:`SpecValidationError` carrying the full report.
    """
    if source.startswith("builtin:"):
        return builtin_scenario(source.removeprefix("builtin:"))
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_scenario(doc)


def parse_scenario(doc: dict):
    """Parse a scenario document (see the JSON layout in the README)."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("backward", "forward"):
        raise ScenarioError("field 'kind' must be 'backward' or 'forward'")
    coeff_fields = _BACKWARD_FIELDS if kind == "backward" else _FORWARD_FIELDS
    allowed = set(_HEADER_FIELDS) | set(coeff_fields)
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioError(f"unknown fields {sorted(unknown)}")
    for field_name in _HEADER_FIELDS + coeff_fields:
        if field_name not in doc:
            raise ScenarioError(f"missing field '{field_name}'")
    n, m = int(doc["n"]), int(doc["m"])
    grid = TimeGrid(float(doc["T"]), int(doc["steps"]))

    def path(name, shape):
        return _parse_path(name, doc[name], shape, grid)

    def affine(name, dim):
        return _parse_affine(name, doc[name], dim, grid)

    def const_vec(name, dim):
        entry = doc[name]
        arr = np.atleast_1d(np.asarray(entry, dtype=float))
        if arr.shape != (dim,):
            raise ScenarioError(f"{name}: shape {arr.shape} != expected {(dim,)}")
        return arr

    def const_mat(name, dim):
        arr = np.asarray(doc[name], dtype=float)
        if np.ndim(doc[name]) == 0:
            if dim != 1:
                raise ScenarioError(f"{name}: scalar entry requires dimension 1")
            arr = arr.reshape(1, 1)
        if arr.shape != (dim, dim):
            raise ScenarioError(f"{name}: shape {arr.shape} != expected {(dim, dim)}")
        return arr

    if kind == "backward":
        spec = ProblemSpec(
            n=n, m=m, grid=grid,
            A=path("A", (n, n)), B=path("B", (n, m)), C=path("C", (n, n)),
            f=affine("f", n),
            G=const_mat("G", n), g=const_vec("g", n),
            Q=path("Q", (n, n)), S1=path("S1", (n, n)), S2=path("S2", (m, n)),
            R11=path("R11", (n, n)), R12=path("R12", (n, m)),
            R21=path("R21", (m, n)), R22=path("R22", (m, m)),
            q=affine("q", n), rho1=affine("rho1", n), rho2=affine("rho2", m),
            xi=affine("xi", n),
        )
    else:
        spec = ForwardProblemSpec(
            n=n, m=m, grid=grid,
            cA=path("cA", (n, n)), cB=path("cB", (n, m)), cC=path("cC", (n, n)),
            cD=path("cD", (n, m)),
            b=affine("b", n), sigma=affine("sigma", n),
            cG=const_mat("cG", n), gTilde=const_vec("gTilde", n),
            cQ=path("cQ", (n, n)), cS=path("cS", (m, n)), cR=path("cR", (m, m)),
            qTilde=affine("qTilde", n), rhoTilde=affine("rhoTilde", m),
            x0=const_vec("x0", n),
        )
    report = validate(spec)
    if not report.ok:
        raise SpecValidationError(report)
    return spec


def _dump_path(path: MatrixPath) -> object:
    if path.kind == CONSTANT:
        return path.values[0].tolist()
    kind = {"kind": PIECEWISE} if path.kind == PIECEWISE else {}  # grid-sampled by default
    return {"t": path.grid.nodes.tolist(), "values": path.node_values().tolist(), **kind}


def _dump_affine(proc: AffineProcess) -> dict:
    return {"a": _dump_path(proc.a), "b": _dump_path(proc.b)}


def scenario_document(spec) -> dict:
    """Serialisable dict in the scenario-file layout."""
    if isinstance(spec, ProblemSpec):
        doc = {
            "kind": "backward",
            "n": spec.n, "m": spec.m,
            "T": spec.grid.T, "steps": spec.grid.steps,
            "A": _dump_path(spec.A), "B": _dump_path(spec.B),
            "C": _dump_path(spec.C), "f": _dump_affine(spec.f),
            "G": spec.G.tolist(), "g": spec.g.tolist(),
            "Q": _dump_path(spec.Q), "S1": _dump_path(spec.S1),
            "S2": _dump_path(spec.S2), "R11": _dump_path(spec.R11),
            "R12": _dump_path(spec.R12), "R21": _dump_path(spec.R21),
            "R22": _dump_path(spec.R22), "q": _dump_affine(spec.q),
            "rho1": _dump_affine(spec.rho1), "rho2": _dump_affine(spec.rho2),
            "xi": _dump_affine(spec.xi),
        }
    else:
        doc = {
            "kind": "forward",
            "n": spec.n, "m": spec.m,
            "T": spec.grid.T, "steps": spec.grid.steps,
            "cA": _dump_path(spec.cA), "cB": _dump_path(spec.cB),
            "cC": _dump_path(spec.cC), "cD": _dump_path(spec.cD),
            "b": _dump_affine(spec.b), "sigma": _dump_affine(spec.sigma),
            "cG": spec.cG.tolist(), "gTilde": spec.gTilde.tolist(),
            "cQ": _dump_path(spec.cQ), "cS": _dump_path(spec.cS),
            "cR": _dump_path(spec.cR), "qTilde": _dump_affine(spec.qTilde),
            "rhoTilde": _dump_affine(spec.rhoTilde),
            "x0": spec.x0.tolist(),
        }
    return doc


def save_scenario(spec, path: str) -> None:
    """Write a spec as a scenario file; floats round-trip bitwise."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_document(spec), fh, indent=1)
        fh.write("\n")


def resample(spec, steps: int):
    """Rebuild a spec on a grid with a different step count.

    Constant paths stay exact; sampled paths are re-evaluated at the new
    nodes using their own interpolation rule.
    """
    if steps == spec.grid.steps:
        return spec
    grid = TimeGrid(spec.grid.T, steps)

    def re_path(p: MatrixPath) -> MatrixPath:
        if p.kind == CONSTANT:
            return MatrixPath(CONSTANT, p.values, grid)
        return MatrixPath(p.kind, p.tabulate(grid.nodes), grid)

    def re_proc(a: AffineProcess) -> AffineProcess:
        return AffineProcess(re_path(a.a), re_path(a.b))

    kw = {}
    for fld in dataclasses.fields(spec):
        val = getattr(spec, fld.name)
        if isinstance(val, MatrixPath):
            kw[fld.name] = re_path(val)
        elif isinstance(val, AffineProcess):
            kw[fld.name] = re_proc(val)
        elif fld.name == "grid":
            kw[fld.name] = grid
        else:
            kw[fld.name] = val
    return type(spec)(**kw)
