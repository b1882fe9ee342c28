"""Experiment configuration, symbol parsing, and command orchestration.

A flat key-value JSON config drives every command; the same config plus
the same seed yields byte-identical artifacts.  Every artifact file is
written here, by _write_csv and _write_json; the numeric modules return
values and do no file I/O.  Reports embed a config hash and a grid
checksum so regenerated outputs can be compared.

Exit codes used by the command runner and the console script:
  0  success
  2  invalid config, unknown command, or bad flag value
  3  symbol expression failed to parse
  4  command unsupported on the configured domain
  5  computation failed inside a module (details on stderr)
"""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, asdict, fields
from functools import cached_property, reduce

import numpy as np
import scipy

from . import __version__ as _version
from . import approximation as approx
from . import diagnostics as diag
from .domains import (DomainSpec, DomainError, ball, build_grid, disc, egg,
                      polydisc)
from .geometry import (GeodesicField, GeometryError, build_net,
                       covering_audit, multiplicity, partition_of_unity,
                       separation_audit)
from .kernels import (KernelError, _blas_threads, engine_for,
                      orthonormalize, reinhardt_basis)
from .operators import (OperatorError, SymbolFn, compactness_indicator,
                        hankel_matrix, weak_null_probe)


class ConfigError(ValueError):
    pass


class SymbolParseError(ValueError):
    pass


class UnsupportedCommandError(RuntimeError):
    pass


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SYMBOL = 3
EXIT_UNSUPPORTED = 4
EXIT_COMPUTE = 5


# -- symbol expressions -----------------------------------------------


_ALLOWED_CALLS = ("conj", "abs2")
_BUMP_RADIUS = 0.5  # support radius of the built-in "bump" symbol


def _var_index(name, dim, offset):
    if not (name.startswith("z") and name[1:].isdigit()):
        raise SymbolParseError(
            f"unknown name {name!r} at offset {offset}: use z1..z{dim}")
    j = int(name[1:]) - 1
    if not 0 <= j < dim:
        raise SymbolParseError(
            f"variable {name!r} out of range for dimension {dim}")
    return j


def _unit(dim, *slots):
    """Exponents with a one in each slot and zeros elsewhere: slot j is
    z_{j+1}, slot dim + j its conjugate."""
    return tuple(int(k in slots) for k in range(2 * dim))


def _build(node, dim):
    """The expression as a polynomial in (z, conj z): a dict from
    exponent tuples (a_1..a_d, b_1..b_d) of z^a conj(z)^b to real
    coefficients."""
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float) \
                or not abs(node.value) <= sys.float_info.max:
            raise SymbolParseError(f"only finite real constants allowed "
                                   f"at offset {node.col_offset}")
        return {_unit(dim): float(node.value)}
    if isinstance(node, ast.Name):
        return {_unit(dim, _var_index(node.id, dim, node.col_offset)): 1.0}
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return {e: -c for e, c in _build(node.operand, dim).items()}
        if isinstance(node.op, ast.UAdd):
            return _build(node.operand, dim)
        raise SymbolParseError(
            f"unsupported unary operator at offset {node.col_offset}")
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            what = "division rejected" if isinstance(node.op, ast.Div) \
                else "unsupported operator"
            raise SymbolParseError(f"{what} at offset {node.col_offset}")
        a, b = _build(node.left, dim), _build(node.right, dim)
        if isinstance(node.op, ast.Mult):
            terms = [(tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                     for ea, ca in a.items() for eb, cb in b.items()]
        else:
            sign = 1.0 if isinstance(node.op, ast.Add) else -1.0
            terms = [*a.items(), *((e, sign * c) for e, c in b.items())]
        table = {}  # like terms merged in order of appearance
        for e, c in terms:
            table[e] = table.get(e, 0.0) + c
        return {e: c for e, c in table.items() if c != 0.0}
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) \
                or node.func.id not in _ALLOWED_CALLS \
                or len(node.args) != 1 or node.keywords:
            raise SymbolParseError(
                f"only conj(z_j) and abs2(z_j) calls allowed "
                f"at offset {node.col_offset}")
        arg = node.args[0]
        if not isinstance(arg, ast.Name):
            raise SymbolParseError(
                f"{node.func.id} takes a bare variable "
                f"at offset {node.col_offset}")
        j = _var_index(arg.id, dim, arg.col_offset)
        slots = (dim + j,) if node.func.id == "conj" else (j, dim + j)
        return {_unit(dim, *slots): 1.0}
    raise SymbolParseError(
        f"unsupported syntax at offset {getattr(node, 'col_offset', 0)}")


def _evaluate(table, z):
    """Sum of c z^a conj(z)^b over the table at an (n, d) batch z.
    Each monomial is a product of columns before its coefficient scales
    it, so a single-term symbol costs no rounding beyond its products."""
    d = z.shape[1]
    out = np.zeros(len(z), dtype=complex)
    for e, c in table.items():
        cols = [z[:, s] if s < d else np.conj(z[:, s - d])
                for s, k in enumerate(e) for _ in range(k)]
        out += c * (reduce(np.multiply, cols) if cols else 1.0)
    return out


def symbol_parse(expr: str, dim: int) -> SymbolFn:
    """Parse an expression over z_j, conj(z_j), abs2(z_j), +, -, *, and
    real constants into a polynomial in (z, conj z)."""
    try:
        table = _build(ast.parse(expr, mode="eval").body, dim)
    except SyntaxError as exc:
        where = "" if exc.offset is None else f" at offset {exc.offset}"
        raise SymbolParseError(f"syntax error{where}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SymbolParseError("expression nested too deeply") from exc
    # sum |c| bounds |phi| on the unit polydisc, which holds every model
    # domain, and every route integrates |phi|^2; s * s, as a float's
    # s ** 2 raises OverflowError
    s = sum(map(abs, table.values()))
    if not math.isfinite(s * s):
        raise SymbolParseError("coefficients out of floating-point range")
    return SymbolFn(fn=lambda z: _evaluate(table, z), label=expr)


def bump_symbol(dim: int) -> SymbolFn:
    """Smooth bump supported where every |z_j| < _BUMP_RADIUS."""
    def fn(z):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        s = np.abs(z) ** 2 / _BUMP_RADIUS ** 2
        inside = np.all(s < 1.0, axis=1)
        out = np.zeros(len(z), dtype=complex)
        with np.errstate(divide="ignore", over="ignore"):
            body = np.exp(np.sum(1.0 - 1.0 / np.maximum(1.0 - s, 1e-300),
                                 axis=1))
        out[inside] = body[inside]
        return out
    return SymbolFn(fn=fn, label=f"bump({_BUMP_RADIUS})")


def resolve_symbol(name: str, dim: int) -> SymbolFn:
    """Named built-ins, else an expression string."""
    if name == "bump":
        return bump_symbol(dim)
    return symbol_parse(name, dim)


# -- configuration ----------------------------------------------------


_DOMAINS = {  # config name: (domain, default resolution)
    "disc": (disc(), 0.025),
    "ball2": (ball(2), 0.1),
    "ball3": (ball(3), 0.2),
    "polydisc2": (polydisc(2), 0.08),
    "polydisc3": (polydisc(3), 0.2),
    "egg2": (egg(2), 0.15),
    "egg4": (egg(4), 0.15),
}

def _has_type_of(value, default):
    """Whether a config value fits the type of its field's default: an
    int (never a bool) where the default is an int, any finite real
    number where it is a float, a list or tuple of such where it is a
    tuple."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) \
            and all(_has_type_of(v, default[0]) for v in value)
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    if isinstance(default, float):
        # bounded, so float() cannot overflow on a huge int
        return isinstance(value, numbers.Real) \
            and abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


@dataclass
class ExperimentConfig:
    domain: str = "disc"
    resolution: float = 0.0  # 0 selects the per-domain default
    seed: int = 20240817
    basis_degree: int = 20
    radius: float = 1.0
    approx_degree: int = 6
    symbol: str = "conj(z1)"
    net_radius: float = 0.5
    rays: int = 4
    steps: tuple = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95)
    hankel_degrees: tuple = (4, 8, 12, 16)
    graph_neighbors: int = 8
    out_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type_of(value, f.default):
                raise ConfigError(
                    f"config field {f.name} must have the type of "
                    f"{f.default!r}, not {type(value).__name__} {value!r}")
        if self.domain not in _DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}; "
                              f"choose from {sorted(_DOMAINS)}")
        if self.resolution == 0.0:
            self.resolution = _DOMAINS[self.domain][1]
        for name in ("resolution", "basis_degree", "radius",
                     "approx_degree", "net_radius", "rays",
                     "graph_neighbors"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"config field {name} must be positive")
        if self.seed < 0:
            raise ConfigError("config field seed must be >= 0")
        self.steps = tuple(float(t) for t in self.steps)
        self.hankel_degrees = tuple(int(n) for n in self.hankel_degrees)
        if not self.steps or not all(0.0 < t < 1.0 for t in self.steps):
            raise ConfigError("steps must be a non-empty list of values "
                              "strictly between 0 and 1")
        if not self.hankel_degrees or min(self.hankel_degrees) < 1:
            raise ConfigError("hankel_degrees must be a non-empty list of "
                              "degrees >= 1")

    @classmethod
    def from_json(cls, source):
        if os.path.isfile(str(source)):
            with open(source) as fh:
                data = json.load(fh)
        elif str(source).lstrip().startswith("{"):
            data = json.loads(source)
        else:
            raise ConfigError(f"config file not found: {source}")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def config_hash(self):
        """Hash of the fields that can change a result: not out_dir, so
        an experiment keeps its id in any directory."""
        payload = asdict(self)
        del payload["out_dir"]
        text = json.dumps(payload, indent=2, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def domain_spec(self) -> DomainSpec:
        return _DOMAINS[self.domain][0]


# -- artifacts --------------------------------------------------------


def _jsonable(x):
    """x as JSON values; a non-finite float becomes None (null)."""
    if isinstance(x, (np.ndarray, np.floating, np.integer)):
        x = x.tolist()
    if isinstance(x, complex):
        x = [x.real, x.imag]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    return x if x is None or isinstance(x, (str, int)) else str(x)


def _grid_checksum(grid):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(grid.nodes).tobytes())
    h.update(np.ascontiguousarray(grid.weights).tobytes())
    return h.hexdigest()[:16]


def _coordinate_columns(d, name="z"):
    """CSV header cells re_<name>1, im_<name>1, ... for points in C^d."""
    return [f"{part}_{name}{j + 1}" for j in range(d) for part in ("re", "im")]


def _coordinate_cells(z):
    """CSV cells (Re, Im per coordinate) written as plain float reprs."""
    return [repr(float(x)) for c in np.ravel(z) for x in (c.real, c.imag)]


def _write_csv(out, name, header, rows):
    with open(os.path.join(out, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(out, name, payload):
    with open(os.path.join(out, name), "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)


# -- orchestration ----------------------------------------------------


class _Workspace:
    """Lazily built shared objects for one run."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.dom = config.domain_spec()

    @cached_property
    def grid(self):
        return build_grid(self.dom, self.config.resolution)

    @cached_property
    def engine(self):
        """Closed form on homogeneous domains, else orthonormalized on
        the grid."""
        if self.dom.homogeneous:
            return engine_for(self.dom)
        return engine_for(self.dom, self.grid,
                          degree=self.config.basis_degree)

    @cached_property
    def field(self):
        return GeodesicField(self.engine, self.grid,
                             neighbors_per_dim=self.config.graph_neighbors)

    def symbol(self):
        return resolve_symbol(self.config.symbol, self.dom.dim)

    def provenance(self):
        return {"config_hash": self.config.config_hash(),
                "grid_checksum": _grid_checksum(self.grid),
                "version": _version, "domain": self.config.domain,
                "resolution": self.config.resolution,
                "seed": self.config.seed, "numpy": np.__version__,
                "scipy": scipy.__version__, "blas_threads": _blas_threads()}

    def scan_centers(self, n=5):
        """Deterministic interior sample: anchor plus ray points."""
        dirs = approx.ray_directions(self.dom, max(n - 1, 1),
                                     seed=self.config.seed)[:n - 1]
        ts = 0.3 + 0.1 * (np.arange(len(dirs)) % 4)
        return np.vstack([self.dom.anchor_point,
                          approx.ray_point(self.dom, dirs, ts)])


def _report(ws, command, summary):
    """The JSON report of one command, with the run's provenance."""
    return {"experiment_id": ws.config.config_hash(), "command": command,
            "summary": summary, "provenance": ws.provenance()}


def _cmd_kernel(ws, out):
    grid = ws.grid
    step = max(1, len(grid) // 64)
    pts = grid.nodes[::step]
    pairs = [(pts[i], pts[(i * 7 + 3) % len(pts)]) for i in range(len(pts))]
    vals = [ws.engine.kernel(z, w) for z, w in pairs]
    d = ws.dom.dim
    _write_csv(out, "kernel.csv",
               _coordinate_columns(d, "z") + _coordinate_columns(d, "w")
               + ["re_B", "im_B"],
               [_coordinate_cells(z) + _coordinate_cells(w)
                + [repr(v.real), repr(v.imag)]
                for (z, w), v in zip(pairs, vals)])
    return {"n_pairs": len(pairs), "mode": ws.engine.mode}


def _cmd_metric(ws, out):
    idx = diag.admissible_nodes(ws.grid)
    z = ws.grid.nodes[idx[::max(1, len(idx) // 500)]]
    g = ws.engine.metric_batch(z)
    lam = np.linalg.eigvalsh(g)
    _write_csv(out, "metric.csv",
               _coordinate_columns(ws.dom.dim)
               + ["lambda_min", "lambda_max", "det_g"],
               [_coordinate_cells(zi) + [repr(float(x)) for x in
                                         (li[0], li[-1], np.prod(li))]
                for zi, li in zip(z, lam)])
    return {"n_points": len(z), "min_eigenvalue": float(np.min(lam))}


def _cmd_distance(ws, out):
    anchor = ws.dom.anchor_point
    targets = ws.scan_centers(9)[1:]
    dists = [ws.field.distance(anchor, t) for t in targets]
    _write_csv(out, "distance.csv", ["target", "bergman_distance"],
               [[i, repr(dist)] for i, dist in enumerate(dists)])
    return {"n_targets": len(targets)}


def _cmd_net(ws, out):
    net = build_net(ws.field, ws.config.net_radius)
    _write_csv(out, "net.csv",
               ["node_index"] + _coordinate_columns(ws.dom.dim),
               [[int(c)] + _coordinate_cells(p)
                for c, p in zip(net.centers, net.center_points())])
    radii = [ws.config.net_radius * s for s in (0.5, 1.0, 2.0)]
    _write_json(out, "multiplicity.json", {
        "separation": net.separation, "n_centers": len(net),
        "multiplicity": {str(float(R)): multiplicity(net, R)
                         for R in radii}})
    return {"n_centers": len(net),
            "separation_min": separation_audit(net),
            "covering_max": covering_audit(net)}


def _cmd_hankel(ws, out):
    cfg = ws.config
    symbol = ws.symbol()
    per_var = ws.dom.kind == "polydisc"
    def basis_at(n):
        if ws.engine.mode == "numerical":
            return orthonormalize(ws.dom, ws.grid, n, per_variable=per_var)
        return reinhardt_basis(ws.dom, n, per_variable=per_var)
    bases = {n: basis_at(n) for n in cfg.hankel_degrees}
    truncs = {}
    def build(n):
        truncs[n] = hankel_matrix(symbol, bases[n], ws.grid, guard=0,
                                  per_variable=per_var)
        return truncs[n]
    top = max(cfg.hankel_degrees)
    probe = weak_null_probe(symbol, ws.engine, bases[top], ws.grid,
                            ws.scan_centers(6))
    ind = compactness_indicator(build, cfg.hankel_degrees,
                                probe_values=probe)
    sigma = truncs[top].singular_values
    _write_csv(out, "sigma.csv", ["degree", "k", "sigma"],
               [[top, k, repr(float(s))] for k, s in enumerate(sigma)])
    return {"compact": ind.compact, "counts": list(ind.counts),
            "sigma0": float(sigma[0]),
            "probe": [float(p) for p in probe]}


def _cmd_omega_scan(ws, out):
    scan = approx.boundary_scan(
        ws.field, ws.symbol(), radius=ws.config.radius,
        degree=ws.config.approx_degree, n_rays=ws.config.rays,
        steps=ws.config.steps, seed=ws.config.seed)
    _write_csv(out, "omega_scan.csv",
               ["ray", "t"] + _coordinate_columns(ws.dom.dim, "zeta")
               + ["r", "D", "mode", "omega", "admissible"],
               [[row.ray, repr(row.t)] + _coordinate_cells(row.zeta)
                + [repr(scan.radius), scan.degree, scan.mode,
                   repr(row.value), int(row.admissible)]
                for row in scan.rows])
    payload = {"radius": scan.radius, "degree": scan.degree,
               "mode": scan.mode, "sup": scan.sup,
               "tail_trend": scan.tail_trend, "decaying": scan.decaying,
               "n_admissible": scan.n_admissible}
    _write_json(out, "omega_summary.json", payload)
    return {k: payload[k] for k in ("sup", "tail_trend", "decaying")}


def _cmd_decompose(ws, out):
    net = build_net(ws.field, ws.config.net_radius)
    dec = approx.decompose(partition_of_unity(net), ws.symbol(),
                           degree=ws.config.approx_degree,
                           seed=ws.config.seed)
    def bracket(audits):  # the largest admissible ratio; null with none
        return max((a["ratio"] for a in audits if a["admissible"]),
                   default=None)
    audit = {
        "identity_error": dec.identity_error(),
        "n_centers": len(dec.epsilon),
        "eps_max": float(np.max(dec.epsilon)),
        "pair_audit_pass": all(a["holds"] for a in dec.pair_audit),
        "pair_audit_count": len(dec.pair_audit),
        "phi2_bracket": bracket(dec.phi2_audit),
        "dbar_bracket": bracket(dec.dbar_audit),
        "shell_epsilon_decay": dec.shell_epsilon_decay()}
    _write_json(out, "decomposition.json", audit)
    _write_csv(out, "epsilon.csv",
               ["center", "shell", "epsilon", "admissible"],
               [[m, int(dec.shell_index[m]), repr(float(dec.epsilon[m])),
                 int(dec.epsilon_admissible[m])] for m in range(len(net))])
    return {k: audit[k] for k in ("identity_error", "eps_max",
                                  "pair_audit_pass", "shell_epsilon_decay")}


def _cmd_sbg(ws, out):
    q = diag.sbg_check(ws.engine, ws.grid)
    c5 = diag.volume_comparison_check(ws.engine, ws.grid)
    # each constant without its non-scalar details
    _write_json(out, "sbg.json", {"constants": [
        {**asdict(e), "detail": {k: v for k, v in e.detail.items()
                                 if np.isscalar(v)}} for e in (q, c5)]})
    return {"Q": q.value, "C5": c5.value,
            "near_boundary_max": q.detail["near_boundary_max"]}


def _cmd_t91(ws, out):
    rep = diag.t91_equivalences(ws.engine, ws.field, ws.scan_centers(5),
                                r=ws.config.radius)
    _write_json(out, "t91.json", rep)
    summary = {"all_finite": rep["all_finite"],
               "coherent": rep["coherent"],
               "cond5_skipped": rep["cond5_skipped"]}
    if rep["cond5_skipped"]:
        summary["warning"] = ("chart condition skipped: no homogeneous "
                              "chart family on this domain")
    return summary


def _cmd_variety(ws, out):
    if ws.dom.kind != "polydisc" or ws.dom.dim < 2:
        raise UnsupportedCommandError(
            "boundary analytic discs are built in only for polydiscs "
            "of dimension 2 or more")
    theta = 0.0
    def disc_map(w):
        point = [np.exp(1j * theta)] * (ws.dom.dim - 1) + [w]
        return np.array(point, dtype=complex)
    res = approx.variety_test(ws.symbol(), ws.dom, disc_map,
                              seed=ws.config.seed)
    _write_json(out, "variety.json",
                {"residual": res, "symbol": ws.config.symbol})
    return {"residual": res}


def _cmd_report(ws, out):
    names = sorted(name for name in os.listdir(out)
                   if name.endswith(".json") and name != "report_report.json")
    for name in names:  # each must parse
        with open(os.path.join(out, name)) as fh:
            json.load(fh)
    return {"artifacts": names}


# each command writes its files into out and returns its report summary
_DISPATCH = {
    "kernel": _cmd_kernel, "metric": _cmd_metric, "distance": _cmd_distance,
    "net": _cmd_net, "hankel": _cmd_hankel, "omega-scan": _cmd_omega_scan,
    "decompose": _cmd_decompose, "sbg-check": _cmd_sbg, "t91": _cmd_t91,
    "variety": _cmd_variety, "report": _cmd_report,
}
COMMANDS = tuple(_DISPATCH)


def run(config: ExperimentConfig, command: str) -> int:
    """Run one command; returns a documented exit code and writes
    artifacts under config.out_dir."""
    if command not in COMMANDS:
        print(f"unknown command {command!r}; choose from {COMMANDS}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"config error: out_dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    ws = _Workspace(config)
    try:
        summary = _DISPATCH[command](ws, config.out_dir)
    except SymbolParseError as exc:
        print(f"symbol error: {exc}", file=sys.stderr)
        return EXIT_SYMBOL
    except UnsupportedCommandError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (DomainError, KernelError, GeometryError, OperatorError,
            approx.ApproximationError, diag.DiagnosticsError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:  # any other failure: one line, exit 5
        print(f"computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_COMPUTE
    _write_json(config.out_dir, f"{command.replace('-', '_')}_report.json",
                _report(ws, command, summary))
    return EXIT_OK
