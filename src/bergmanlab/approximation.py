"""Local holomorphic approximation functionals and boundary scans.

The central quantity is the weighted least-squares distance from a
symbol to holomorphic polynomials on a Bergman-metric ball, measured
either against the metric volume form (bergman-volume mode) or against
normalized Lebesgue measure (li-normalized mode).  Boundary scans track
it along rays toward the boundary; the decomposition splits a symbol
into a holomorphically-glued part and a small remainder and audits the
inequalities that drive the compactness argument.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as _dc_field

import numpy as np
from scipy.sparse import csr_matrix, triu

from .domains import (DomainSpec, boundary_residual, contains,
                      coordinate_cells, coordinate_columns)
from .geometry import (GeodesicField, GeometryError, MetricBall, Net,
                       Partition, metric_ball)
from .kernels import multi_indices, monomial_matrix
from .operators import SymbolFn


class ApproximationError(RuntimeError):
    pass


MODES = ("bergman-volume", "li-normalized")


@dataclass(frozen=True)
class OmegaValue:
    center: np.ndarray
    radius: float
    mode: str
    value: float
    degree: int
    rank: int
    n_unknowns: int
    n_nodes: int
    coefficients: np.ndarray  # minimizer in shifted monomials
    alphas: np.ndarray

    def approximant(self, z):
        """The minimizing holomorphic polynomial, evaluated at points."""
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        shifted = z - self.center[None, :]
        return monomial_matrix(shifted, self.alphas) @ self.coefficients


def omega(field: GeodesicField, ball: MetricBall, symbol: SymbolFn,
          degree: int, mode="bergman-volume") -> OmegaValue:
    """inf over polynomials h of degree <= degree of the weighted
    squared L^2 distance on the ball."""
    if mode not in MODES:
        raise ApproximationError(f"unknown omega mode {mode!r}")
    if degree < 0:
        raise ApproximationError("approximation degree must be >= 0")
    nodes = field.grid.nodes[ball.members]
    w = field.grid.weights[ball.members].copy()
    if mode == "bergman-volume":
        w *= field.volume_density_nodes()[ball.members]
    else:
        w /= ball.lebesgue_mass
    if np.all(w <= 0):
        raise ApproximationError("all quadrature weights vanished")
    alphas = multi_indices(field.domain.dim, degree)
    X = monomial_matrix(nodes - ball.center[None, :], alphas)
    rhs = symbol(nodes)
    sw = np.sqrt(w)
    scale = np.linalg.norm(sw[:, None] * X, axis=0)
    scale[scale == 0] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(sw[:, None] * X / scale[None, :],
                                      sw * rhs, rcond=1e-12)
    coeffs = sol / scale
    resid = rhs - X @ coeffs
    value = float(np.sum(w * np.abs(resid) ** 2))
    return OmegaValue(center=ball.center, radius=ball.radius, mode=mode,
                      value=value, degree=degree, rank=int(rank),
                      n_unknowns=len(alphas), n_nodes=len(nodes),
                      coefficients=coeffs, alphas=alphas)


# -- boundary scans ---------------------------------------------------


def ray_directions(dom: DomainSpec, n_rays: int, seed=0):
    """Deterministic unit directions in C^d for boundary rays."""
    d = dom.dim
    if d == 1:
        theta = 2.0 * math.pi * np.arange(n_rays) / n_rays
        return np.exp(1j * theta)[:, None]
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_rays, 2 * d))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v[:, 0::2] + 1j * v[:, 1::2]


def ray_point(dom: DomainSpec, direction, t: float):
    """anchor + t * (distance to the boundary along the ray), t in [0,1)."""
    a = dom.anchor_point
    u = np.asarray(direction, dtype=complex).reshape(-1)
    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if contains(dom, a + mid * u):
            lo = mid
        else:
            hi = mid
    return a + t * lo * u


@dataclass
class ScanRow:
    ray: int
    t: float
    zeta: np.ndarray
    value: float
    admissible: bool
    n_nodes: int
    n_unknowns: int


@dataclass
class ScanSummary:
    rows: list
    radius: float
    degree: int
    mode: str
    sup: float
    tail_trend: float
    n_admissible: int

    @property
    def decaying(self):
        return self.sup < 1e-10 or self.tail_trend < 0.5

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            d = len(self.rows[0].zeta) if self.rows else 0
            w.writerow(["ray", "t"] + coordinate_columns(d, "zeta")
                       + ["r", "D", "mode", "omega", "admissible"])
            for row in self.rows:
                w.writerow([row.ray, repr(row.t)] + coordinate_cells(row.zeta)
                           + [repr(self.radius), self.degree, self.mode,
                              repr(row.value), int(row.admissible)])

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump({"radius": self.radius, "degree": self.degree,
                       "mode": self.mode, "sup": self.sup,
                       "tail_trend": self.tail_trend,
                       "decaying": self.decaying,
                       "n_admissible": self.n_admissible}, fh,
                      indent=2, sort_keys=True)


def _tail_trend(ts, vals):
    """Mean of the last t-quartile over the mean of the first."""
    ts = np.asarray(ts)
    vals = np.asarray(vals)
    order = np.argsort(ts)
    vals = vals[order]
    q = max(1, len(vals) // 4)
    head = float(np.mean(vals[:q]))
    tail = float(np.mean(vals[-q:]))
    if head <= 0:
        return 0.0 if tail <= 0 else math.inf
    return tail / head


def boundary_scan(field: GeodesicField, symbol: SymbolFn, radius=1.0,
                  degree=6, mode="bergman-volume", directions=None,
                  n_rays=4, steps=(0.3, 0.5, 0.7, 0.8, 0.9, 0.95),
                  min_node_factor=10, seed=0) -> ScanSummary:
    """omega along rays from the anchor toward the boundary.

    Near-boundary balls with fewer than min_node_factor * unknowns grid
    nodes are flagged inadmissible and excluded from the summary.
    """
    dom = field.domain
    if directions is None:
        directions = ray_directions(dom, n_rays, seed=seed)
    n_unknowns = len(multi_indices(dom.dim, degree))
    rows = []
    for ray_id, u in enumerate(directions):
        for t in steps:
            zeta = ray_point(dom, u, t)
            try:
                ball = metric_ball(field, zeta, radius)
            except GeometryError:  # outside the domain, or an empty ball
                rows.append(ScanRow(ray=ray_id, t=float(t), zeta=zeta,
                                    value=math.nan, admissible=False,
                                    n_nodes=0, n_unknowns=n_unknowns))
                continue
            ov = omega(field, ball, symbol, degree, mode)
            ok = len(ball) >= min_node_factor * n_unknowns
            rows.append(ScanRow(ray=ray_id, t=float(t), zeta=zeta,
                                value=ov.value, admissible=ok,
                                n_nodes=len(ball), n_unknowns=n_unknowns))
    adm = [r for r in rows if r.admissible]
    if not adm:
        raise ApproximationError("no admissible scan points")
    sup = max(r.value for r in adm)
    trend = _tail_trend([r.t for r in adm], [r.value for r in adm])
    return ScanSummary(rows=rows, radius=float(radius), degree=degree,
                       mode=mode, sup=sup, tail_trend=trend,
                       n_admissible=len(adm))


# -- the phi = phi_1 + phi_2 decomposition ----------------------------


@dataclass
class Decomposition:
    net: Net
    partition: Partition
    symbol: SymbolFn
    degree: int
    epsilon: np.ndarray  # per-center L^2(dV) residuals
    epsilon_admissible: np.ndarray  # bool
    shell_index: np.ndarray
    approximants: list  # per-center OmegaValue
    phi1: np.ndarray
    phi2: np.ndarray
    r_small: float  # the audit ball radius (r_2 in the gluing argument)
    eps_ball_radius: float
    pair_audit: list = _dc_field(default_factory=list)
    phi2_audit: list = _dc_field(default_factory=list)
    dbar_audit: list = _dc_field(default_factory=list)

    def identity_error(self):
        phi = self.symbol(self.net.field.grid.nodes)
        return float(np.max(np.abs(self.phi1 + self.phi2 - phi)))

    def shell_epsilon_decay(self):
        """max eps over the first vs the last admissible shell."""
        shells = sorted(set(self.shell_index[self.epsilon_admissible]))
        if len(shells) < 2:
            return math.nan
        def shell_max(s):
            sel = (self.shell_index == s) & self.epsilon_admissible
            return float(np.max(self.epsilon[sel]))
        return shell_max(shells[0]) / max(shell_max(shells[-1]), 1e-300)

    def audits_json(self, path):
        with open(path, "w") as fh:
            json.dump({
                "identity_error": self.identity_error(),
                "n_centers": len(self.net),
                "eps_max": float(np.max(self.epsilon)),
                "pair_audit_pass": all(a["holds"] for a in self.pair_audit),
                "pair_audit_count": len(self.pair_audit),
                "phi2_bracket": max((a["ratio"] for a in self.phi2_audit),
                                    default=0.0),
                "dbar_bracket": max((a["ratio"] for a in self.dbar_audit),
                                    default=0.0),
                "shell_epsilon_decay": self.shell_epsilon_decay(),
            }, fh, indent=2, sort_keys=True)


def _ball_integral(field, center_point, radius, values_sq):
    """integral of values_sq dV over the graph metric ball."""
    dist = field.distances_from_point(center_point, limit=radius)
    sel = dist < radius
    w = field.grid.weights[sel] * field.volume_density_nodes()[sel]
    return float(np.sum(w * values_sq[sel]))


def decompose(field: GeodesicField, net: Net, partition: Partition,
              symbol: SymbolFn, degree=6, min_node_factor=10,
              audit_pairs=40, audit_dbar=True, seed=0) -> Decomposition:
    """Build phi_1 = sum chi_hat_m h_m and audit the gluing estimates.

    Per-center approximants h_m minimize the dV-weighted distance on
    B(zeta_m, r_outer + r_2), so the pairwise bound
    ||h_n - h_m||_{L^2(B(zeta, r_2), dV)} <= eps_n + eps_m holds exactly
    on the graph for any zeta in both supports (triangle inequality plus
    exact containment of the audit ball in both epsilon balls).
    """
    grid = net.field.grid
    r1 = net.separation
    r2 = 0.5 * r1
    r_eps = partition.r_outer + r2
    centers = net.center_points()
    n_unknowns = len(multi_indices(field.domain.dim, degree))
    eps = np.empty(len(net))
    admissible = np.zeros(len(net), dtype=bool)
    approximants = []
    anchor_dist = field.distances_from_point(field.domain.anchor_point)
    shell = np.floor(anchor_dist[net.centers] / r1).astype(int)
    for m, c in enumerate(centers):
        ball = metric_ball(field, c, r_eps)
        ov = omega(field, ball, symbol, degree, mode="bergman-volume")
        eps[m] = math.sqrt(max(ov.value, 0.0))
        admissible[m] = len(ball) >= min_node_factor * n_unknowns
        approximants.append(ov)
    # glue: phi1 = sum_m chi_hat_m h_m on the nodes
    chi = partition.values
    phi1 = np.zeros(len(grid), dtype=complex)
    for m, ov in enumerate(approximants):
        sel = chi[m] > 0
        phi1[sel] += chi[m][sel] * ov.approximant(grid.nodes[sel])
    phi_vals = symbol(grid.nodes)
    phi2 = phi_vals - phi1
    dec = Decomposition(net=net, partition=partition, symbol=symbol,
                        degree=degree, epsilon=eps,
                        epsilon_admissible=admissible, shell_index=shell,
                        approximants=approximants, phi1=phi1, phi2=phi2,
                        r_small=r2, eps_ball_radius=r_eps)
    # audit (i): local phi_2 mass against the largest nearby epsilon.
    # Centers touching an inadmissible ball (too few nodes for the
    # least-squares rank) give vacuous epsilons and are flagged out.
    phi2_sq = np.abs(phi2) ** 2
    for m, c in enumerate(centers):
        mass = _ball_integral(field, c, r2, phi2_sq)
        local = np.nonzero(chi[:, net.centers[m]] > 0)[0]
        bound = float(np.max(eps[local]) ** 2) if len(local) else 0.0
        ok = bool(len(local)) and bool(np.all(admissible[local]))
        dec.phi2_audit.append(
            {"center": m, "mass": mass, "eps_sq": bound, "admissible": ok,
             "ratio": mass / bound if (ok and bound > 0) else 0.0})
    # audit (ii): pairwise approximant gaps on overlapping supports
    # candidates: the upper-triangle nonzeros of S S^T, S = supports,
    # in row-major order; witnesses only for the pairs the audit keeps
    rng = np.random.default_rng(seed)
    supp = chi > 0
    S = csr_matrix(supp, dtype=np.int32)
    rows, cols = triu(S @ S.T, k=1).nonzero()
    order = np.lexsort((cols, rows))
    pairs = list(zip(rows[order].tolist(), cols[order].tolist()))
    if len(pairs) > audit_pairs:
        pairs = [pairs[i] for i in
                 sorted(rng.choice(len(pairs), audit_pairs, replace=False))]
    for n, m in pairs:
        witness = np.nonzero(supp[n] & supp[m])[0]
        node = int(witness[len(witness) // 2])
        zeta = grid.nodes[node]
        hn = approximants[n]
        hm = approximants[m]
        gap_sq = np.abs(hn.approximant(grid.nodes)
                        - hm.approximant(grid.nodes)).ravel() ** 2
        lhs = math.sqrt(_ball_integral(field, zeta, r2, gap_sq))
        rhs = eps[n] + eps[m]
        dec.pair_audit.append(
            {"pair": (n, m), "witness": node, "lhs": lhs, "rhs": rhs,
             "holds": bool(lhs <= rhs * (1.0 + 1e-9) + 1e-12)})
    # audit (iii): finite-difference dbar phi_1 in the metric norm
    if audit_dbar:
        _audit_dbar(dec, field)
    return dec


def _audit_dbar(dec: Decomposition, field: GeodesicField):
    """Mass of ||dbar phi_1||_g^2 dV on audit balls vs local epsilon^2.

    dbar phi_1 = sum_m h_m dbar chi_hat_m with chi_hat differentiated by
    central differences of the graph-distance cutoffs.
    """
    grid = field.grid
    d = field.domain.dim
    h = 0.25 * grid.resolution
    nodes = grid.nodes
    centers = dec.net.center_points()
    # dbar chi_hat at all nodes, one finite-difference stencil per node
    dbar_chi = np.zeros((len(dec.net), len(nodes), d), dtype=complex)
    for j in range(d):
        step = np.zeros(d, dtype=complex)
        step[j] = h
        ok = contains(field.domain, nodes + step) \
            & contains(field.domain, nodes - step) \
            & contains(field.domain, nodes + 1j * step) \
            & contains(field.domain, nodes - 1j * step)
        idx = np.nonzero(ok)[0]
        px = dec.partition.evaluate(nodes[idx] + step, strict=False)
        mx = dec.partition.evaluate(nodes[idx] - step, strict=False)
        py = dec.partition.evaluate(nodes[idx] + 1j * step, strict=False)
        my = dec.partition.evaluate(nodes[idx] - 1j * step, strict=False)
        covered = (px.sum(axis=0) > 0.5) & (mx.sum(axis=0) > 0.5) \
            & (py.sum(axis=0) > 0.5) & (my.sum(axis=0) > 0.5)
        idx = idx[covered]
        dbar = 0.5 * ((px - mx) + 1j * (py - my)) / (2.0 * h)
        dbar_chi[:, idx, j] = dbar[:, covered]
    dphi1 = np.zeros((len(nodes), d), dtype=complex)
    for m, ov in enumerate(dec.approximants):
        act = np.nonzero(np.any(dbar_chi[m] != 0, axis=1))[0]
        if len(act):
            dphi1[act] += ov.approximant(nodes[act])[:, None] \
                * dbar_chi[m][act]
    g = field.engine.metric_batch(nodes)
    ginv = np.linalg.inv(g)
    norm_sq = np.einsum("nj,njk,nk->n", dphi1.conj(), ginv, dphi1).real
    norm_sq = np.maximum(norm_sq, 0.0)
    for m, c in enumerate(centers):
        mass = _ball_integral(field, c, dec.r_small, norm_sq)
        local = np.nonzero(
            dec.partition.values[:, dec.net.centers[m]] > 0)[0]
        bound = float(np.max(dec.epsilon[local]) ** 2) if len(local) else 0.0
        ok = bool(len(local)) \
            and bool(np.all(dec.epsilon_admissible[local]))
        dec.dbar_audit.append(
            {"center": m, "mass": mass, "eps_sq": bound, "admissible": ok,
             "ratio": mass / bound if (ok and bound > 0) else 0.0})


# -- dbar energy functional (sufficient condition for boundedness) ----


def dbar_functional(symbol: SymbolFn, field: GeodesicField,
                    ball: MetricBall) -> float:
    """integral over the ball of ||dbar phi||_g^2 dV, by quadrature.

    The 1-form norm uses the inverse metric; for C^1 symbols only.
    """
    if symbol.smoothness != "C1":
        raise ApproximationError(
            "dbar functional requires a C1 symbol (refused, not differenced)")
    nodes = field.grid.nodes[ball.members]
    alpha = symbol.dbar_values(nodes)
    g = field.engine.metric_batch(nodes)
    lam = np.linalg.eigvalsh(g)
    if np.any(lam[:, 0] <= 0):
        raise ApproximationError("metric not positive definite on the ball")
    ginv = np.linalg.inv(g)
    norm_sq = np.einsum("nj,njk,nk->n", alpha.conj(), ginv, alpha).real
    w = field.grid.weights[ball.members] \
        * field.volume_density_nodes()[ball.members]
    return float(np.sum(w * norm_sq))


# -- boundary analytic-disc test --------------------------------------


def variety_test(symbol: SymbolFn, dom: DomainSpec, disc_map,
                 sample_count=64, sample_radius=0.7, h=1e-5,
                 boundary_tol=1e-8, seed=0) -> float:
    """Mean |dbar (phi o F)| over sample points of the unit disc, for a
    parametrized analytic disc F in the boundary.  Zero iff the symbol
    is holomorphic along the disc."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=sample_count) + 1j * rng.normal(size=sample_count)
    w *= sample_radius * rng.uniform(0, 1, sample_count) ** 0.5 \
        / np.maximum(np.abs(w), 1e-12)
    pts = np.stack([np.asarray(disc_map(wi), dtype=complex) for wi in w])
    res = boundary_residual(dom, pts)
    if np.max(res) > boundary_tol:
        raise ApproximationError(
            f"disc map leaves the boundary (residual {np.max(res):.3e})")
    def comp(ws):
        zz = np.stack([np.asarray(disc_map(wi), dtype=complex) for wi in ws])
        return symbol(zz)
    dx = (comp(w + h) - comp(w - h)) / (2.0 * h)
    dy = (comp(w + 1j * h) - comp(w - 1j * h)) / (2.0 * h)
    dbar = 0.5 * (dx + 1j * dy)
    return float(np.mean(np.abs(dbar)))
