"""Model domains in C^d: membership, boundary gaps, and quadrature grids.

Points are complex arrays of shape (d,); batches have shape (n, d).
All quadrature weights are in plain Lebesgue-measure units (mu), with
dmu = product over coordinates of dx_j dy_j.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from scipy.special import beta as beta_fn


class DomainError(ValueError):
    """Invalid domain input (dimension mismatch, exterior point, ...)."""


@dataclass(frozen=True)
class DomainSpec:
    """A bounded open model domain in C^d."""

    kind: str  # ball | polydisc | egg; the disc is the polydisc in C^1
    dim: int
    label: str = ""
    egg_exponent: int = 2

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dimension must be a positive integer")
        if self.kind not in ("ball", "polydisc", "egg"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == "egg" and self.dim != 2:
            raise DomainError("egg domains live in C^2")

    @property
    def anchor_point(self):
        """The origin, interior to every model domain; rays and nets
        start there."""
        return np.zeros(self.dim, dtype=complex)

    @property
    def homogeneous(self):
        """The one list of kinds with closed-form kernels and charts."""
        return self.kind in ("ball", "polydisc")


def disc():
    """The unit disc: the polydisc in C^1."""
    return DomainSpec(kind="polydisc", dim=1, label="disc")


def ball(d):
    return DomainSpec(kind="ball", dim=d, label=f"ball({d})")


def polydisc(d):
    return DomainSpec(kind="polydisc", dim=d, label=f"polydisc({d})")


def egg(m):
    """The egg domain {|z1|^2 + |z2|^(2m) < 1} in C^2."""
    if m < 1:
        raise DomainError("egg exponent must be >= 1")
    return DomainSpec(kind="egg", dim=2, egg_exponent=int(m),
                      label=f"egg({m})")


def contains(dom: DomainSpec, z) -> np.ndarray | bool:
    """Strict membership test; broadcasts over a batch (n, d)."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != dom.dim:
        raise DomainError(
            f"point has dimension {z.shape[-1]}, domain has {dom.dim}")
    if not np.all(np.isfinite(z)):
        raise DomainError("point has non-finite coordinates")
    if dom.kind == "ball":
        res = np.sum(np.abs(z) ** 2, axis=-1) < 1.0
    elif dom.kind == "polydisc":
        res = np.all(np.abs(z) < 1.0, axis=-1)
    else:
        m = dom.egg_exponent
        res = np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** (2 * m) < 1.0
    if res.ndim == 0:
        return bool(res)
    return res


def boundary_gap(dom: DomainSpec, z):
    """Distance (ball/polydisc: exact Euclidean; egg: a positive
    lower bound from the defining function) from an interior point to
    the boundary."""
    z = np.asarray(z, dtype=complex)
    inside = contains(dom, z)
    if not np.all(inside):
        raise DomainError("boundary_gap requires interior points")
    if dom.kind == "ball":
        gap = 1.0 - np.sqrt(np.sum(np.abs(z) ** 2, axis=-1))
    elif dom.kind == "polydisc":
        gap = np.min(1.0 - np.abs(z), axis=-1)
    else:
        m = dom.egg_exponent
        g = np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** (2 * m) - 1.0
        gap = np.abs(g) / (2.0 + 2.0 * m)
    if gap.ndim == 0:
        return float(gap)
    return gap


def boundary_residual(dom: DomainSpec, z):
    """|defining function| at z; zero iff z lies on the boundary."""
    z = np.asarray(z, dtype=complex)
    if dom.kind == "ball":
        return np.abs(np.sqrt(np.sum(np.abs(z) ** 2, axis=-1)) - 1.0)
    if dom.kind == "polydisc":
        # boundary of the closed polydisc: all |z_i| <= 1, max |z_i| = 1
        over = np.max(np.maximum(np.abs(z) - 1.0, 0.0), axis=-1)
        at = np.abs(np.max(np.abs(z), axis=-1) - 1.0)
        return np.maximum(over, at)
    m = dom.egg_exponent
    return np.abs(np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** (2 * m) - 1.0)


def lebesgue_volume(dom: DomainSpec) -> float:
    """mu(Omega), in closed form."""
    d = dom.dim
    if dom.kind == "ball":
        return math.pi ** d / math.factorial(d)
    if dom.kind == "polydisc":
        return math.pi ** d
    m = dom.egg_exponent
    return math.pi ** 2 * m / (m + 1.0)


def central_dbar(f, z, h):
    """Central-difference Wirtinger derivatives d f / d zbar_j at an
    (n, d) batch z with step h, for every j: 0.5 (d/dx_j + i d/dy_j).

    f maps (n, d) points to (n, ...) values; the result is (n, d, ...).
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    out = []
    for step in h * np.eye(z.shape[1], dtype=complex):
        dx = (f(z + step) - f(z - step)) / (2 * h)
        dy = (f(z + 1j * step) - f(z - 1j * step)) / (2 * h)
        out.append(0.5 * (dx + 1j * dy))
    return np.stack(out, axis=1)


@dataclass(frozen=True)
class QuadratureGrid:
    """Deterministic quadrature nodes/weights for Lebesgue integration.

    The nodes run orbit by orbit, T = n_theta ** d to an orbit, and
    every node of an orbit has one weight.  A product-polar grid's orbit
    rho is r_rho * exp(2 pi i t / n_theta) over every t in
    Z_{n_theta}^d in C order, so its first node is the real moduli
    r_rho, bit for bit, and its weight is weights[rho * T].  A
    tensor-midpoint grid has n_theta 1: each node is its own orbit.
    """

    nodes: np.ndarray  # (n, d) complex
    weights: np.ndarray  # (n,) positive
    resolution: float
    scheme: str
    domain: DomainSpec
    n_theta: int = 1

    def __post_init__(self):
        if len(self.nodes) == 0:
            raise DomainError("grid has no nodes (resolution too coarse?)")
        if np.any(self.weights <= 0):
            raise DomainError("grid weights must be positive")

    def __len__(self):
        return len(self.nodes)


# candidate nodes of a tensor-midpoint grid, before clipping to the
# domain: ball2 at 0.05 (criterion 09) needs 2,560,000
_MIDPOINT_CAP = 8_000_000


def _tensor_midpoint(dom, resolution):
    """Midpoint rule on a uniform split of the bounding box [-1, 1]^2d,
    clipped to the domain; the nodes run in lexicographic order of
    (Re z_1, ..., Re z_d, Im z_1, ..., Im z_d)."""
    # below resolution 2 / float_max, 2 / resolution passes float
    # range; float_max cells per axis are past the cap all the same
    n = math.ceil(min(2.0 / resolution, sys.float_info.max))
    n_cand = n ** (2 * dom.dim)  # a Python int, so it cannot overflow
    if n_cand > _MIDPOINT_CAP:
        raise DomainError(f"tensor-midpoint resolution {resolution} asks "
                          f"for {Decimal(n_cand):.4g} candidate nodes, "
                          f"above the cap of {_MIDPOINT_CAP}")
    h = 2.0 / n
    axis = -1.0 + h * (np.arange(n) + 0.5)
    grids = np.meshgrid(*([axis] * (2 * dom.dim)), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=-1)
    z = x[:, :dom.dim] + 1j * x[:, dom.dim:]
    keep = contains(dom, z)
    z = z[keep]
    w = np.full(len(z), h ** (2 * dom.dim))
    return z, w


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _with_angles(moduli, orbit_weights, n_theta):
    """Cross radial nodes (moduli |z_j| of shape (m, d), one weight per
    orbit) with n_theta equispaced angles in every coordinate."""
    d = moduli.shape[1]
    phases = np.exp(1j * (2.0 * math.pi * np.arange(n_theta) / n_theta))
    mesh_t = np.meshgrid(*([np.arange(n_theta)] * d), indexing="ij")
    idx = np.stack([m.ravel() for m in mesh_t], axis=-1)
    z = moduli.astype(complex)[:, None, :] * phases[idx][None, :, :]
    return z.reshape(-1, d), np.repeat(orbit_weights, len(idx))


def _product_polar(dom, n_rad, n_theta):
    """Moduli (m, d) and orbit weights (m,) of the product-polar rule."""
    d = dom.dim
    if dom.kind == "polydisc":
        t, wt = _gauss01(n_rad)  # t = r^2 in each factor
        mesh = np.meshgrid(*([np.sqrt(t)] * d), indexing="ij")
        wf = wt * math.pi / n_theta
        w = wf
        for _ in range(d - 1):  # products in coordinate order
            w = (w[:, None] * wf[None, :]).ravel()
        return np.stack([m.ravel() for m in mesh], axis=-1), w
    angular = (math.pi / n_theta) ** d
    if dom.kind == "ball":
        # radial part over the simplex {u_1+...+u_d < 1} by stick breaking
        t_axes = [_gauss01(n_rad) for _ in range(d)]
        mesh = np.meshgrid(*[t for t, _ in t_axes], indexing="ij")
        wmesh = np.meshgrid(*[w for _, w in t_axes], indexing="ij")
        x = np.stack([m.ravel() for m in mesh], axis=-1)
        wrad = np.prod(np.stack([m.ravel() for m in wmesh], axis=-1), axis=-1)
        u = np.empty_like(x)
        rem = np.ones(len(x))
        for j in range(d):
            u[:, j] = x[:, j] * rem
            wrad = wrad * rem
            rem = rem * (1.0 - x[:, j])
        return np.sqrt(u), wrad * angular
    m = dom.egg_exponent
    tv, wv = _gauss01(n_rad * max(1, m))  # v = |z2|^2
    tu, wu = _gauss01(n_rad)  # u = |z1|^2 / (1 - v^m)
    U, V = np.meshgrid(tu, tv, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    scale = 1.0 - V ** m
    moduli = np.stack([np.sqrt((U * scale).ravel()), np.sqrt(V.ravel())],
                      axis=-1)
    return moduli, (WU * WV * scale).ravel() * angular


def build_grid(dom: DomainSpec, resolution: float, scheme="tensor-midpoint",
               degree=None) -> QuadratureGrid:
    """Build a deterministic quadrature grid.

    schemes:
      tensor-midpoint  midpoint rule on a clipped tensor grid (default);
                       at most _MIDPOINT_CAP candidate nodes
      product-polar    polar/Reinhardt product rule, exact for monomial
                       inner products up to ``degree`` (a required
                       non-negative integer); nodes run orbit by orbit
    """
    if resolution <= 0 and scheme != "product-polar":
        raise DomainError("resolution must be positive")
    n_theta = 1
    if scheme == "tensor-midpoint":
        if degree is not None:
            raise DomainError("degree applies only to the product-polar "
                              "scheme")
        z, w = _tensor_midpoint(dom, resolution)
    elif scheme == "product-polar":
        if degree is None:
            raise DomainError("product-polar scheme requires a degree")
        if isinstance(degree, bool) or not isinstance(
                degree, numbers.Integral) or degree < 0:
            raise DomainError(f"product-polar degree must be a "
                              f"non-negative integer, not {degree!r}")
        n_theta = 2 * int(degree) + 3
        z, w = _with_angles(*_product_polar(dom, int(degree) + 2, n_theta),
                            n_theta)
        resolution = 1.0 / (degree + 1)
    else:
        raise DomainError(f"unknown grid scheme {scheme!r}")
    if len(z) == 0:
        raise DomainError("resolution too coarse: no nodes inside domain")
    return QuadratureGrid(nodes=np.ascontiguousarray(z),
                          weights=np.ascontiguousarray(w),
                          resolution=float(resolution), scheme=scheme,
                          domain=dom, n_theta=n_theta)


def monomial_norm2(dom: DomainSpec, alpha) -> float:
    """Exact squared L^2(mu) norm of z^alpha on Reinhardt model domains."""
    alpha = np.asarray(alpha, dtype=int)
    d = dom.dim
    if dom.kind == "polydisc":
        return float(np.prod([math.pi / (a + 1.0) for a in alpha]))
    if dom.kind == "ball":
        n = int(np.sum(alpha))
        prod = math.prod(math.factorial(int(a)) for a in alpha)
        if n + d > 170:
            # (n + d)! exceeds a float; int / int rounds correctly
            return math.pi ** d * (math.factorial(d) * prod
                                   / (d * math.factorial(n + d)))
        num = math.pi ** d * math.factorial(d) * float(prod)
        return num / (d * math.factorial(n + d))
    m = dom.egg_exponent
    a, b = int(alpha[0]), int(alpha[1])
    radial = beta_fn((b + 1.0) / m, a + 2.0) / m
    return math.pi ** 2 / (a + 1.0) * radial
