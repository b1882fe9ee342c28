"""Constant estimation and coherence checks for the kernel geometry.

Each check sweeps admissible grid nodes or metric-ball scans and reports
a bracket constant: off-diagonal kernel comparability, the
volume-form/kernel comparison, the self-bounded-gradient supremum, and
the five-way equivalence report tying them together.  Finite brackets
on admissible nodes are evidence of consistency, not proofs; report
wording stays at "consistent with".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .domains import boundary_gap
from .geometry import GeodesicField, chart, metric_ball
from .kernels import KernelEngine

GAP_FACTOR = 10.0  # admissible nodes lie this many spacings inside


class DiagnosticsError(RuntimeError):
    pass


@dataclass
class ConstantEstimate:
    name: str
    value: float
    sample: str
    detail: dict = _dc_field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value <= 0:
            raise DiagnosticsError(
                f"constant {self.name} is not finite positive: {self.value}")


def _bracket(values):
    """(C, lo, hi) with C = max(hi, 1/lo) over positive values in [lo, hi],
    so 1/C <= value <= C; plain numbers, which may be non-finite."""
    lo, hi = np.min(values), np.max(values)
    return float(max(hi, 1.0 / lo)), float(lo), float(hi)


def admissible_nodes(grid):
    """Nodes kept for sup-type scans: gap >= GAP_FACTOR * spacing.

    The threshold is capped at half the largest gap on the grid so that
    coarse grids (or domains whose gap bound is conservative) still
    retain a deep-interior sample instead of nothing.
    """
    gap = boundary_gap(grid.domain, grid.nodes)
    thr = min(GAP_FACTOR * grid.resolution, 0.5 * float(np.max(gap)))
    return np.nonzero(gap >= thr)[0]


# -- off-diagonal comparability (two-sided kernel estimate) -----------


def off_diagonal_check(engine: KernelEngine, field: GeodesicField,
                       centers, r0=1.0) -> ConstantEstimate:
    """Bracket for |B(z,zeta)|^2 / (B(z,z) B(zeta,zeta)) over the pairs
    of each centre and the members of its metric ball of radius r0."""
    centers = np.atleast_2d(np.asarray(centers, dtype=complex))
    ratios = [off_diagonal_ratio(engine, field.grid.nodes[ball.members], zeta)
              for zeta, ball in zip(centers, metric_ball(field, centers, r0))]
    if not ratios:
        raise DiagnosticsError("no centers for the off-diagonal check")
    value, lo, hi = _bracket(np.concatenate(ratios))
    return ConstantEstimate(
        name="C3", value=value,
        sample=f"{sum(map(len, ratios))} pairs at distance < {r0}",
        detail={"ratio_min": lo, "ratio_max": hi, "r0": float(r0)})


def off_diagonal_ratio(engine: KernelEngine, z, zeta):
    """|B(z,zeta)|^2 / (B(z,z) B(zeta,zeta)), a float for one point z and
    an array over a batch (n, d); the diagonal gives exactly 1."""
    z = np.asarray(z, dtype=complex)
    pts = np.atleast_2d(z)
    zeta = np.asarray(zeta, dtype=complex).reshape(1, -1)
    num = np.abs(np.reshape(engine.kernel(pts, zeta), len(pts))) ** 2
    ratio = num / (engine.kernel_diag(pts) * engine.kernel_diag(zeta)[0])
    return ratio if z.ndim > 1 else float(ratio[0])


# -- volume form vs kernel --------------------------------------------


def volume_comparison_check(engine: KernelEngine, grid) -> ConstantEstimate:
    """Bracket for volume_density(z) / B(z,z) over admissible nodes."""
    idx = admissible_nodes(grid)
    if not len(idx):
        raise DiagnosticsError("no admissible nodes for volume comparison")
    z = grid.nodes[idx]
    value, lo, hi = _bracket(engine.volume_density_batch(z)
                             / engine.kernel_diag(z))
    return ConstantEstimate(
        name="C5", value=value,
        sample=f"{len(idx)} admissible nodes",
        detail={"ratio_min": lo, "ratio_max": hi})


# -- self-bounded gradient --------------------------------------------


def sbg_values(engine: KernelEngine, z):
    """(d log B)^* g^{-1} (d log B) at a batch of points."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    grad = engine.dlog_kernel(z)
    g = engine.metric_batch(z)
    lam = np.linalg.eigvalsh(g)
    if np.any(lam[:, 0] <= 0):
        raise DiagnosticsError("metric not positive definite on SBG sample")
    sol = np.linalg.solve(g, grad[..., None])[..., 0]
    return np.einsum("nj,nj->n", grad.conj(), sol).real


def sbg_check(engine: KernelEngine, grid) -> ConstantEstimate:
    """Q = sup over admissible nodes of the squared gradient of log B in
    the metric norm, with a boundary trend flag."""
    idx = admissible_nodes(grid)
    if not len(idx):
        raise DiagnosticsError("no admissible nodes for SBG scan")
    z = grid.nodes[idx]
    q = sbg_values(engine, z)
    gap = boundary_gap(grid.domain, z)
    order = np.argsort(gap)
    k = max(1, len(idx) // 10)
    near = float(np.max(q[order[:k]]))   # smallest gaps
    deep = float(np.max(q[order[-k:]]))  # deepest interior
    sup = float(np.max(q))
    growing = near > 2.0 * max(deep, 1e-300) and near >= 0.999 * sup
    return ConstantEstimate(
        name="Q", value=sup,
        sample=f"{len(idx)} admissible nodes",
        detail={"near_boundary_max": near, "interior_max": deep,
                "boundary_growth_flag": bool(growing),
                "argmax_gap": float(gap[np.argmax(q)])})


# -- five-way equivalence report --------------------------------------

def t91_equivalences(engine: KernelEngine, field: GeodesicField,
                     centers, r=1.0) -> dict:
    """Bracket constants for the five mutually equivalent conditions:
    (1) self-bounded gradient of log B, (2) kernel comparability on
    metric balls, (3) B(zeta,zeta) * Lebesgue ball volume bracket,
    (4) volume-density vs normalized-Lebesgue bracket on each ball,
    (5) chart log-Jacobian derivative bound (homogeneous models only).
    """
    grid = field.grid
    centers = np.atleast_2d(np.asarray(centers, dtype=complex))
    report = {"domain": field.domain.label, "r": float(r)}
    # (1)
    q = sbg_check(engine, grid)
    report["cond1_sbg_sup"] = q.value
    report["cond1_growth_flag"] = q.detail["boundary_growth_flag"]
    # (2) B on each ball over B at its centre, (3) B there times the volume
    balls = metric_ball(field, centers, r)
    if not balls:
        raise DiagnosticsError("all equivalence balls were empty")
    bz = np.array([engine.kernel_diag(z[None])[0] for z in centers])
    members = np.concatenate([ball.members for ball in balls])
    c2, _, _ = _bracket(engine.kernel_diag(grid.nodes[members])
                        / np.repeat(bz, [len(ball) for ball in balls]))
    c3, *c3range = _bracket(bz * [ball.lebesgue_mass for ball in balls])
    report["cond2_kernel_ratio_bracket"] = c2
    report["cond3_mass_product_range"] = c3range
    report["cond3_bracket"] = c3
    # (4)
    c4 = volume_equivalence_bracket(engine, field, centers, r).value
    report["cond4_volume_bracket"] = c4
    # (5)
    if field.domain.homogeneous:
        sup5 = 0.0
        for zeta in centers:
            cm = chart(field.domain, zeta)
            grad = cm.dlog_absdet(np.zeros((1, field.domain.dim),
                                           dtype=complex))
            sup5 = max(sup5, float(np.linalg.norm(grad)))
        report["cond5_chart_gradient_sup"] = sup5
        report["cond5_skipped"] = False
    else:
        report["cond5_chart_gradient_sup"] = None
        report["cond5_skipped"] = True
    finite = [math.isfinite(report["cond1_sbg_sup"]),
              math.isfinite(c2), math.isfinite(report["cond3_bracket"]),
              math.isfinite(c4)]
    if not report["cond5_skipped"]:
        finite.append(math.isfinite(report["cond5_chart_gradient_sup"]))
    report["all_finite"] = bool(all(finite))
    report["coherent"] = bool(all(finite) or not any(finite))
    report["verdict"] = ("consistent with the five-way equivalence"
                         if report["coherent"] else
                         "conditions disagree: check brackets")
    return report


def volume_equivalence_bracket(engine: KernelEngine, field: GeodesicField,
                               centers, r=1.0) -> ConstantEstimate:
    """Max over centers of the two-sided constant between the metric
    volume density and 1/mu(B(zeta,r)) on the ball."""
    density = field.volume_density_nodes
    balls = metric_ball(field, np.atleast_2d(np.asarray(centers,
                                                        dtype=complex)), r)
    if not balls:
        raise DiagnosticsError(
            "no centers for the volume-equivalence bracket")
    best, _, _ = _bracket(np.concatenate(
        [density[ball.members] * ball.lebesgue_mass for ball in balls]))
    return ConstantEstimate(name="L", value=best,
                            sample=f"{len(balls)} centers, r={r}",
                            detail={"r": float(r)})
