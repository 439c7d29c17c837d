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

Each coefficient is declared once, as a field of :class:`ProblemSpec` or
:class:`ForwardProblemSpec`: its type is its form (a :class:`MatrixPath`, an
:class:`AffineProcess` or a constant array) and ``_coef`` states its shape in
terms of n and m and whether it must be symmetric.  :func:`validate`, the
scenario-file parser and writer, the zero templates of the builtins and
:func:`resample` all loop over these declarations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError, SpecValidationError
from .grid import CONSTANT, PIECEWISE, SAMPLED, AffineProcess, MatrixPath, TimeGrid

SYMMETRY_TOL = 1e-12

BUILTIN_NAMES = ("S1", "S2", "S4", "S5", "SX", "SH", "SF")


def _coef(*shape: str, symmetric: bool = False):
    """Declare a coefficient field: its shape as a tuple of "n"/"m"."""
    return field(metadata={"shape": shape, "symmetric": symmetric})


@functools.cache
def _coefficients(kind: type) -> tuple:
    """(name, form, shape, symmetric) of each coefficient of a problem kind,
    in declaration order; the form is the field's type."""
    hints = typing.get_type_hints(kind)
    return tuple((f.name, hints[f.name], f.metadata["shape"], f.metadata["symmetric"])
                 for f in dataclasses.fields(kind) if "shape" in f.metadata)


def _shape(symbols: tuple, n: int, m: int) -> tuple:
    return tuple({"n": n, "m": m}[s] for s in symbols)


class _Problem:
    """Behaviour shared by the two problem kinds."""

    def __post_init__(self):
        for name, form, _, _ in _coefficients(type(self)):
            if form is np.ndarray:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True, eq=False)
class ProblemSpec(_Problem):
    """Coefficients of a backward stochastic LQ problem."""

    n: int
    m: int
    grid: TimeGrid
    A: MatrixPath = _coef("n", "n")
    B: MatrixPath = _coef("n", "m")
    C: MatrixPath = _coef("n", "n")
    f: AffineProcess = _coef("n")
    G: np.ndarray = _coef("n", "n", symmetric=True)
    g: np.ndarray = _coef("n")
    Q: MatrixPath = _coef("n", "n", symmetric=True)
    S1: MatrixPath = _coef("n", "n")
    S2: MatrixPath = _coef("m", "n")
    R11: MatrixPath = _coef("n", "n", symmetric=True)
    R12: MatrixPath = _coef("n", "m")
    R21: MatrixPath = _coef("m", "n")
    R22: MatrixPath = _coef("m", "m", symmetric=True)
    q: AffineProcess = _coef("n")
    rho1: AffineProcess = _coef("n")
    rho2: AffineProcess = _coef("m")
    xi: AffineProcess = _coef("n")

    def coefficient_bound(self) -> float:
        """Largest sup-norm over the state-equation coefficients."""
        return max(p.max_abs() for p in (self.A, self.B, self.C))


@dataclass(frozen=True, eq=False)
class ForwardProblemSpec(_Problem):
    """Coefficients of a forward stochastic LQ problem."""

    n: int
    m: int
    grid: TimeGrid
    cA: MatrixPath = _coef("n", "n")
    cB: MatrixPath = _coef("n", "m")
    cC: MatrixPath = _coef("n", "n")
    cD: MatrixPath = _coef("n", "m")
    b: AffineProcess = _coef("n")
    sigma: AffineProcess = _coef("n")
    cG: np.ndarray = _coef("n", "n", symmetric=True)
    gTilde: np.ndarray = _coef("n")
    cQ: MatrixPath = _coef("n", "n", symmetric=True)
    cS: MatrixPath = _coef("m", "n")
    cR: MatrixPath = _coef("m", "m", symmetric=True)
    qTilde: AffineProcess = _coef("n")
    rhoTilde: AffineProcess = _coef("m")
    x0: np.ndarray = _coef("n")


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: a list of violations, empty when OK."""

    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _check(name: str, samples: np.ndarray, shape: tuple, symmetric: bool,
           dt: float | None, out: list[str]) -> None:
    """Shape, finiteness and (when declared) symmetry of samples stacked on a
    leading axis: a path's values with its step ``dt``, or a constant array
    as one sample with ``dt`` None."""
    if samples.shape[1:] != shape:
        out.append(f"{name}: shape {samples.shape[1:]} != expected {shape}")
    finite = np.isfinite(samples)
    if not finite.all():
        k = int(np.argwhere(~finite)[0, 0])
        out.append(f"{name}: non-finite " + ("entry" if dt is None else f"sample at t={k * dt:g}"))
    elif symmetric and samples.shape[1:] == shape:
        dev = np.max(np.abs(samples - np.swapaxes(samples, -1, -2)), axis=(-1, -2),
                     initial=0.0)
        k = int(np.argmax(dev))
        if dev[k] > SYMMETRY_TOL:
            where = "" if dt is None else f" at t={k * dt:g} (deviation {dev[k]:.3e})"
            out.append(f"{name}: not symmetric{where}")


def validate(spec) -> ValidationReport:
    """Collect every structural violation of a problem spec.

    Violations are data, not exceptions: the report lists all symmetry,
    dimension and finiteness problems with their location.
    """
    out: list[str] = []
    for name, form, symbols, symmetric in _coefficients(type(spec)):
        value, shape = getattr(spec, name), _shape(symbols, spec.n, spec.m)
        if form is AffineProcess:
            for part in ("a", "b"):
                path = getattr(value, part)
                _check(f"{name}.{part}", path.values, shape, False, path.grid.dt, out)
        elif form is MatrixPath:
            _check(name, value.values, shape, symmetric, value.grid.dt, out)
        else:
            _check(name, value[None], shape, symmetric, None, out)

    if not out and isinstance(spec, ProblemSpec):
        r12 = spec.R12.node_values()
        r21 = spec.R21.node_values()
        dev = np.max(np.abs(r12 - np.swapaxes(r21, -1, -2)), axis=(-1, -2))
        worst = int(np.argmax(dev))
        if dev[worst] > SYMMETRY_TOL:
            out.append(f"R12 != R21^T at t={worst * spec.grid.dt:g} "
                       f"(deviation {dev[worst]:.3e})")
    return ValidationReport(out)


# The zero coefficient of each form, given its shape.
_ZERO = {
    MatrixPath: MatrixPath.zeros,
    AffineProcess: AffineProcess.zero,
    np.ndarray: lambda shape, grid: np.zeros(shape),
}


def _zeros(kind: type, n: int, m: int, grid: TimeGrid) -> dict:
    """Every coefficient of a problem kind, zero."""
    return {name: _ZERO[form](_shape(symbols, n, m), grid)
            for name, form, symbols, _ in _coefficients(kind)}


def homogeneous(spec: ProblemSpec) -> ProblemSpec:
    """The companion problem with f, g, q, rho1, rho2 and xi set to zero.

    The weights (G, Q, S, R) are kept; this is the functional whose
    nonnegativity characterises solvability and whose uniform positivity
    is probed by :func:`bslq.evaluate.convexity_probe`.
    """
    return spec.replace(**{name: _ZERO[form](_shape(symbols, spec.n, spec.m), spec.grid)
                           for name, form, symbols, _ in _coefficients(ProblemSpec)
                           if name in ("f", "g", "q", "rho1", "rho2", "xi")})


# ---------------------------------------------------------------------------
# Built-in benchmark scenarios
# ---------------------------------------------------------------------------


def _scalar(kind: type, grid: TimeGrid, **overrides):
    """A scalar (n = m = 1) problem: every coefficient zero, then the overrides."""
    return kind(n=1, m=1, grid=grid, **(_zeros(kind, 1, 1, grid) | overrides))


def builtin_scenario(name: str, steps: int = 200, c: float = 1.0, x0: float = 1.0):
    """Construct a named benchmark on a fresh grid with the given step count.

    The scalar backward benchmarks all have T = 1, B = R22 = 1 and differ in
    the weights and terminal value; SF is the scalar forward fixture.
    """
    grid = TimeGrid(1.0, steps)
    one = MatrixPath.constant([[1.0]], grid)
    half = MatrixPath.constant([[0.5]], grid)
    w_terminal = AffineProcess.of_constants([0.0], [1.0], grid)
    xi_c = AffineProcess.of_constants([c], [0.0], grid)
    backward = {
        "S1": {},
        "S2": {"g": np.array([1.0]), "xi": xi_c},
        "S4": {"R11": one, "xi": w_terminal},
        "S5": {"R11": MatrixPath.constant([[-0.5]], grid), "xi": w_terminal},
        "SX": {"R11": one, "R12": half, "R21": half, "xi": w_terminal},
        "SH": {"Q": one, "xi": xi_c},
    }
    if name in backward:
        return _scalar(ProblemSpec, grid, B=one, R22=one, **backward[name])
    if name == "SF":
        return _scalar(ForwardProblemSpec, grid, cB=one, cR=one,
                       cG=np.array([[1.0]]), x0=np.array([x0]))
    raise ScenarioError(f"unknown builtin scenario {name!r}")


# ---------------------------------------------------------------------------
# Scenario files (JSON)
# ---------------------------------------------------------------------------

_HEADER_FIELDS = ("kind", "n", "m", "T", "steps")


def _numeric(name: str, entry) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array.  A boolean,
    string, null or object inside it, an integer beyond the float range, or
    rows of unequal length, raise a ScenarioError naming the field."""
    pending = [[entry]]
    while pending:
        for item in pending.pop():
            if isinstance(item, list):
                pending.append(item)
            elif isinstance(item, bool) or not isinstance(item, numbers.Real):
                raise ScenarioError(
                    f"{name}: non-numeric entry {json.dumps(item, default=repr)}")
    try:
        return np.asarray(entry, dtype=float)
    except OverflowError:
        raise ScenarioError(f"{name}: number out of the float range") from None
    except ValueError:
        raise ScenarioError(f"{name}: ragged nested list") from None


def _parse_path(name: str, entry, shape: tuple, grid: TimeGrid) -> MatrixPath:
    if isinstance(entry, dict):
        unknown = set(entry) - {"t", "values", "kind"}
        if unknown:
            raise ScenarioError(f"{name}: unknown keys {sorted(unknown)}")
        kind = entry.get("kind", SAMPLED)
        if kind not in (SAMPLED, PIECEWISE):
            raise ScenarioError(f"{name}: kind must be {SAMPLED!r} or {PIECEWISE!r}")
        if "t" not in entry or "values" not in entry:
            raise ScenarioError(f"{name}: {kind} entry needs 't' and 'values'")
        t = _numeric(name, entry["t"])
        vals = _numeric(name, entry["values"])
        if t.shape != (grid.steps + 1,) or np.max(np.abs(t - grid.nodes)) > 1e-12:
            raise ScenarioError(f"{name}: sample times do not match the grid")
        if vals.shape != (grid.steps + 1,) + shape:
            raise ScenarioError(f"{name}: values shape {vals.shape} != expected "
                                f"{(grid.steps + 1,) + shape}")
        return MatrixPath(kind, vals, grid)
    return MatrixPath.constant(_parse_array(name, entry, shape, grid), grid)


def _parse_affine(name: str, entry, shape: tuple, grid: TimeGrid) -> AffineProcess:
    if isinstance(entry, dict) and ("a" in entry or "b" in entry):
        unknown = set(entry) - {"a", "b"}
        if unknown:
            raise ScenarioError(f"{name}: unknown keys {sorted(unknown)}")
        return AffineProcess(*(
            _parse_path(f"{name}.{part}", entry[part], shape, grid) if part in entry
            else MatrixPath.zeros(shape, grid) for part in ("a", "b")))
    return AffineProcess.deterministic(_parse_path(name, entry, shape, grid))


def _parse_array(name: str, entry, shape: tuple, grid: TimeGrid) -> np.ndarray:
    """A constant array: a nested list, or a scalar for dimension 1."""
    if isinstance(entry, dict):
        raise ScenarioError(f"{name}: invalid entry of type dict")
    arr = _numeric(name, entry)
    if arr.ndim == 0:
        if shape not in ((1,), (1, 1)):
            raise ScenarioError(f"{name}: scalar entry requires dimension 1")
        arr = np.full(shape, arr)
    if arr.shape != shape:
        raise ScenarioError(f"{name}: shape {arr.shape} != expected {shape}")
    return arr


_PARSE = {MatrixPath: _parse_path, AffineProcess: _parse_affine, np.ndarray: _parse_array}


def _header(doc: dict, name: str):
    """Header number ``name``: T is any real, n, m and steps integers >= 1."""
    value, integral = doc[name], name != "T"
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integral else numbers.Real):
        raise ScenarioError(f"{name} must be {'an integer' if integral else 'a number'}, "
                            f"got {json.dumps(value, default=repr)}")
    if integral and value < 1:
        raise ScenarioError(f"{name} must be >= 1, got {value}")
    return int(value) if integral else float(value)


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
    cls = ProblemSpec if kind == "backward" else ForwardProblemSpec
    coefficients = _coefficients(cls)
    names = _HEADER_FIELDS + tuple(c[0] for c in coefficients)
    unknown = set(doc) - set(names)
    if unknown:
        raise ScenarioError(f"unknown fields {sorted(unknown)}")
    for name in names:
        if name not in doc:
            raise ScenarioError(f"missing field '{name}'")
    n, m, T, steps = (_header(doc, name) for name in _HEADER_FIELDS[1:])
    grid = TimeGrid(T, steps)
    spec = cls(n=n, m=m, grid=grid, **{
        name: _PARSE[form](name, doc[name], _shape(symbols, n, m), grid)
        for name, form, symbols, _ in coefficients})
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


_DUMP = {MatrixPath: _dump_path, AffineProcess: _dump_affine, np.ndarray: np.ndarray.tolist}


def scenario_document(spec) -> dict:
    """Serialisable dict in the scenario-file layout."""
    doc = {"kind": "backward" if isinstance(spec, ProblemSpec) else "forward",
           "n": spec.n, "m": spec.m, "T": spec.grid.T, "steps": spec.grid.steps}
    for name, form, _, _ in _coefficients(type(spec)):
        doc[name] = _DUMP[form](getattr(spec, name))
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

    redo = {MatrixPath: re_path,
            AffineProcess: lambda proc: AffineProcess(re_path(proc.a), re_path(proc.b)),
            np.ndarray: lambda arr: arr}
    return spec.replace(grid=grid, **{name: redo[form](getattr(spec, name))
                                      for name, form, _, _ in _coefficients(type(spec))})
