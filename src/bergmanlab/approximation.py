"""Local holomorphic approximation functionals and boundary scans.

The central quantity is the weighted least-squares distance from a
symbol to holomorphic polynomials on a Bergman-metric ball, measured
either against the metric volume form (bergman-volume mode) or against
normalized Lebesgue measure (li-normalized mode).  Boundary scans track
it along rays toward the boundary.  The decomposition glues local
approximants with a partition of unity (which carries its net and
field) and audits the inequalities that drive the compactness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dc_field

import numpy as np
from scipy.sparse import triu

from .domains import DomainSpec, boundary_residual, central_dbar, contains
from .geometry import (GeodesicField, MetricBall, Partition, _ball,
                       _search_rows, metric_ball)
from .kernels import multi_indices, monomial_matrix
from .operators import SymbolFn


class ApproximationError(RuntimeError):
    pass


MODES = ("bergman-volume", "li-normalized")
# a ball is admissible with at least this many grid nodes per unknown
MIN_NODE_FACTOR = 10
AUDIT_PAIRS = 40  # overlapping-support pairs audited per decomposition
# an eps at most _ROUNDING * max |phi| is rounding noise
_ROUNDING = 1e-10
_VARIETY_SAMPLES = 64         # variety_test's sample points w,
_VARIETY_SAMPLE_RADIUS = 0.7  # drawn with |w| below this radius;
_VARIETY_BOUNDARY_TOL = 1e-8  # its largest boundary residual of F


@dataclass(frozen=True)
class OmegaValue:
    center: np.ndarray
    value: float
    rank: int
    n_unknowns: int
    n_nodes: int
    coefficients: np.ndarray  # minimizer in shifted monomials
    alphas: np.ndarray

    @property
    def admissible(self):
        """At least MIN_NODE_FACTOR grid nodes per unknown."""
        return self.n_nodes >= MIN_NODE_FACTOR * self.n_unknowns

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
        w *= field.volume_density_nodes[ball.members]
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
    return OmegaValue(center=ball.center, value=value, rank=int(rank),
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


def ray_point(dom: DomainSpec, direction, t):
    """anchor + t * (distance to the boundary along the ray), t in [0,1);
    an (m, d) batch of rays, with one t or one per row, gives (m, d)."""
    a = dom.anchor_point
    u = np.asarray(direction, dtype=complex)
    rays = np.atleast_2d(u)
    lo, hi = np.zeros(len(rays)), np.full(len(rays), 2.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = contains(dom, a + mid[:, None] * rays)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    pts = a + (np.asarray(t, dtype=float) * lo)[:, None] * rays
    return pts if u.ndim > 1 else pts[0]


@dataclass
class ScanRow:
    ray: int
    t: float
    zeta: np.ndarray
    value: float
    admissible: bool
    n_nodes: int


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
        return self.tail_trend < 0.5


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
                  degree=6, directions=None, n_rays=4,
                  steps=(0.3, 0.5, 0.7, 0.8, 0.9, 0.95),
                  seed=0) -> ScanSummary:
    """omega (bergman-volume mode) along rays from the anchor toward the
    boundary.

    Every row's ball comes from one budgeted search; empty balls and
    those OmegaValue.admissible rejects are left out of the summary, and
    an omega zero up to rounding (sup < 1e-10) has a tail trend of 0.
    """
    dom = field.domain
    if directions is None:
        directions = ray_directions(dom, n_rays, seed=seed)
    dirs = np.asarray(directions, dtype=complex)
    dirs = dirs.reshape(len(dirs), -1)  # d = 1 rays may come as scalars
    ts = np.tile(np.asarray(steps, dtype=float), len(dirs))
    zetas = ray_point(dom, np.repeat(dirs, len(steps), axis=0), ts)
    # an outside point, or a radius <= 0, leaves its row without a ball
    search = contains(dom, zetas) & (radius > 0)
    dists = _search_rows(field, zetas[search], radius)
    rows = []
    for i, (zeta, ok) in enumerate(zip(zetas, search)):
        ball = _ball(field, zeta, radius, next(dists)) if ok else None
        ov = omega(field, ball, symbol, degree) if ok and len(ball) \
            else None
        rows.append(ScanRow(
            ray=i // len(steps), t=float(ts[i]), zeta=zeta,
            value=math.nan if ov is None else ov.value,
            admissible=ov is not None and ov.admissible,
            n_nodes=len(ball) if ok else 0))
    adm = [r for r in rows if r.admissible]
    if not adm:
        raise ApproximationError("no admissible scan points")
    sup = max(r.value for r in adm)
    trend = 0.0 if sup < 1e-10 else \
        _tail_trend([r.t for r in adm], [r.value for r in adm])
    return ScanSummary(rows=rows, radius=float(radius), degree=degree,
                       mode="bergman-volume", sup=sup, tail_trend=trend,
                       n_admissible=len(adm))


# -- the phi = phi_1 + phi_2 decomposition ----------------------------


@dataclass
class Decomposition:
    partition: Partition  # with its net and field
    symbol: SymbolFn
    epsilon: np.ndarray  # per-center L^2(dV) residuals
    epsilon_admissible: np.ndarray  # bool
    shell_index: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    r_small: float  # the audit ball radius (r_2 in the gluing argument)
    noise: float  # _ROUNDING * max |phi| over the grid
    pair_audit: list = _dc_field(default_factory=list)
    phi2_audit: list = _dc_field(default_factory=list)
    dbar_audit: list = _dc_field(default_factory=list)

    def identity_error(self):
        phi = self.symbol(self.partition.net.field.grid.nodes)
        return float(np.max(np.abs(self.phi1 + self.phi2 - phi)))

    def shell_epsilon_decay(self):
        """max eps over the first vs the last admissible shell, or NaN."""
        shells = sorted(set(self.shell_index[self.epsilon_admissible]))
        def shell_max(s):
            sel = (self.shell_index == s) & self.epsilon_admissible
            return float(np.max(self.epsilon[sel]))
        if len(shells) < 2 or shell_max(shells[0]) <= self.noise:
            return math.nan
        return shell_max(shells[0]) / max(shell_max(shells[-1]), 1e-300)


def _csr_rows(mat):
    """(indices, data) views of each row of a CSR matrix, in row order;
    scipy's own row objects cost a matrix each."""
    for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:]):
        yield mat.indices[lo:hi], mat.data[lo:hi]


def _ball_integral(field, members, values):
    """integral of values dV over a ball, given values at its member node
    indices."""
    w = field.grid.weights[members] * field.volume_density_nodes[members]
    return float(np.sum(w * values))


def decompose(partition: Partition, symbol: SymbolFn, degree=6,
              seed=0) -> Decomposition:
    """Build phi_1 = sum chi_hat_m h_m and audit the gluing estimates.

    The net and the field are the partition's.  Per-center approximants
    h_m minimize the dV-weighted distance on B(zeta_m, r_outer + r_2),
    so the pairwise bound
    ||h_n - h_m||_{L^2(B(zeta, r_2), dV)} <= eps_n + eps_m holds exactly
    on the graph for any zeta in both supports (triangle inequality plus
    exact containment of the audit ball in both epsilon balls).
    """
    net = partition.net
    field = net.field
    grid = field.grid
    r2 = 0.5 * net.separation
    r_eps = partition.r_outer + r2
    eps = np.empty(len(net))
    admissible = np.zeros(len(net), dtype=bool)
    approximants = []
    anchor_dist = field.distances_from_point(field.domain.anchor_point)
    shell = np.floor(anchor_dist[net.centers] / net.separation).astype(int)
    for m, ball in enumerate(metric_ball(field, net.center_points(), r_eps)):
        ov = omega(field, ball, symbol, degree)
        eps[m] = math.sqrt(max(ov.value, 0.0))
        admissible[m] = ov.admissible
        approximants.append(ov)
    # glue: phi1 = sum_m chi_hat_m h_m on the nodes
    chi = partition.values
    phi1 = np.zeros(len(grid), dtype=complex)
    for ov, (cols, vals) in zip(approximants, _csr_rows(chi)):
        phi1[cols] += vals * ov.approximant(grid.nodes[cols])
    phi = symbol(grid.nodes)
    dec = Decomposition(partition=partition, symbol=symbol, epsilon=eps,
                        epsilon_admissible=admissible, shell_index=shell,
                        phi1=phi1, phi2=phi - phi1, r_small=r2,
                        noise=_ROUNDING * np.max(np.abs(phi)))
    # audit (i): local phi_2 mass against the largest nearby epsilon
    dec.phi2_audit = _local_audits(dec, np.abs(dec.phi2) ** 2)
    # audit (ii): pairwise approximant gaps on overlapping supports
    # candidates: the upper-triangle pattern of chi chi^T (the support
    # overlaps) in row-major order; witnesses only for the kept pairs
    rng = np.random.default_rng(seed)
    rows, cols = triu(chi @ chi.T, k=1).nonzero()
    order = np.lexsort((cols, rows))
    pairs = list(zip(rows[order].tolist(), cols[order].tolist()))
    if len(pairs) > AUDIT_PAIRS:
        pairs = [pairs[i] for i in
                 sorted(rng.choice(len(pairs), AUDIT_PAIRS, replace=False))]
    witnesses = [int(w[len(w) // 2]) for w in
                 (np.intersect1d(chi[n].indices, chi[m].indices)
                  for n, m in pairs)]
    balls = metric_ball(field, grid.nodes[witnesses], r2)
    for (n, m), node, ball in zip(pairs, witnesses, balls):
        sel = ball.members
        gap = approximants[n].approximant(grid.nodes[sel]) \
            - approximants[m].approximant(grid.nodes[sel])
        lhs = math.sqrt(_ball_integral(field, sel, np.abs(gap) ** 2))
        rhs = eps[n] + eps[m]
        dec.pair_audit.append(
            {"pair": (n, m), "witness": node, "lhs": lhs, "rhs": rhs,
             "holds": bool(lhs <= rhs * (1.0 + 1e-9) + 1e-12)})
    # audit (iii): finite-difference dbar phi_1 in the metric norm
    _audit_dbar(dec)
    return dec


def _local_audits(dec: Decomposition, values_sq) -> list:
    """Per center m, the mass of values_sq dV on B(zeta_m, r_2) against
    the largest eps^2 of the cutoffs alive at zeta_m (m among them).
    The ball's members are row m of Net.near below r_2 (r_2 < 2r).
    Centers touching an inadmissible ball (too few nodes for the
    least-squares rank) give vacuous epsilons and are flagged out; a
    bound that is zero up to rounding gives a ratio of 0."""
    net = dec.partition.net
    floor = dec.noise ** 2
    alive = _csr_rows(dec.partition.values.T.tocsr()[net.centers])
    audits = []
    for m, (cols, dist) in enumerate(_csr_rows(net.near)):
        members = cols[dist < dec.r_small]
        mass = _ball_integral(net.field, members, values_sq[members])
        local = next(alive)[0]  # the cutoffs alive at center m
        bound = float(np.max(dec.epsilon[local]) ** 2)
        ok = bool(np.all(dec.epsilon_admissible[local]))
        audits.append(
            {"center": m, "mass": mass, "eps_sq": bound, "admissible": ok,
             "ratio": mass / bound if (ok and bound > floor) else 0.0})
    return audits


def _audit_dbar(dec: Decomposition):
    """Mass of ||dbar phi_1||_g^2 dV on audit balls vs local epsilon^2,
    dbar phi_1 differenced from phi_1 itself on the lattice; a node with
    no lattice neighbour on some axis (NaN) adds no mass."""
    field = dec.partition.net.field
    dphi1 = field.lattice_dbar(dec.phi1)
    ginv = np.linalg.inv(field.engine.metric_batch(field.grid.nodes))
    norm_sq = np.einsum("nj,njk,nk->n", dphi1.conj(), ginv, dphi1).real
    dec.dbar_audit = _local_audits(dec, np.fmax(norm_sq, 0.0))


# -- boundary analytic-disc test --------------------------------------


def variety_test(symbol: SymbolFn, dom: DomainSpec, disc_map,
                 seed=0) -> float:
    """Mean |dbar (phi o F)| over sample points of the unit disc, for a
    parametrized analytic disc F in the boundary.  Zero iff the symbol
    is holomorphic along the disc."""
    n = _VARIETY_SAMPLES
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    w *= _VARIETY_SAMPLE_RADIUS * rng.uniform(0, 1, n) ** 0.5 \
        / np.maximum(np.abs(w), 1e-12)
    def along(ws):  # the disc points F(w)
        return np.stack([np.asarray(disc_map(v), dtype=complex) for v in ws])
    res = boundary_residual(dom, along(w))
    if np.max(res) > _VARIETY_BOUNDARY_TOL:
        raise ApproximationError(
            f"disc map leaves the boundary (residual {np.max(res):.3e})")
    dbar = central_dbar(lambda ws: symbol(along(ws[:, 0])), w[:, None])
    return float(np.mean(np.abs(dbar)))
