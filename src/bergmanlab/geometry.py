"""Discretized Bergman-metric geometry.

A GeodesicField is a lattice-stencil graph over tensor-midpoint nodes
with edges weighted by midpoint-rule Bergman length, one metric row per
midpoint of each |v|; shortest paths approximate the Bergman distance;
off-grid points join it through their k nearest nodes.  On top: metric
balls, maximal r-separated nets, multiplicities, cubic-ramp partitions
of unity (1 at r, 0 at 2r), automorphism charts on homogeneous models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, vstack
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .domains import (DomainSpec, QuadratureGrid, _midpoints_inside,
                      central_dbar, contains)
from .kernels import KernelEngine, _row_chunks


_SEARCH_BUDGET = 1_000_000  # distances per batch of Dijkstra sources (8 MB)


class GeometryError(RuntimeError):
    pass


def _realify(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.float64)


def _on_node(lengths):
    """Whether a point's first attach edge has length 0: it is that node."""
    return np.isclose(lengths[..., 0], 0.0, atol=1e-13)


def _lattice_pairs(index, v):
    """Node pairs (2, p) at x, x + v, by lower corner, and corner mask."""
    m = len(index)
    lo, hi = np.clip(-v, 0, m), np.clip(m - v, 0, m)
    i, j = (index[tuple(map(slice, lo + s, hi + s))] for s in (0, v))
    keep = (i >= 0) & (j >= 0)
    return np.stack((i[keep], j[keep])), keep


def _stencil(dims, count):
    """Primitive offsets in Z^dims with a positive lead (first nonzero
    coordinate), one of each +-v pair, in whole shells of |v|^2 up to the
    first shell that brings the count to at least ``count``."""
    for r in range(1, count + 1):
        # the box |v|_inf <= r holds every shell below (r + 1)^2 whole,
        # and its points after the centre in C order have a positive lead
        v = np.indices((2 * r + 1,) * dims).reshape(dims, -1).T - r
        v = v[len(v) // 2 + 1:]
        shell = np.sum(v * v, axis=1)
        keep = (np.gcd.reduce(v, axis=1) == 1) & (shell < (r + 1) ** 2)
        if np.count_nonzero(keep) >= count:
            return v[keep & (shell <= np.sort(shell[keep])[count - 1])]


class GeodesicField:
    """Shortest-path oracle for the Bergman distance on a grid; it
    remembers only its last off-grid search (``distances_from_point``)."""

    def __init__(self, engine: KernelEngine, grid: QuadratureGrid,
                 neighbors_per_dim=8):
        self.engine = engine
        self.grid = grid
        self.domain = grid.domain
        d = self.domain.dim
        if neighbors_per_dim < 1:
            raise GeometryError(f"neighbors_per_dim must be at least 1, "
                                f"not {neighbors_per_dim}")
        if grid.scheme != "tensor-midpoint":
            raise GeometryError("geodesic graphs need a tensor-midpoint grid")
        self.k = neighbors_per_dim * 2 * d
        nodes = grid.nodes
        n = len(nodes)
        if n < 2:
            raise GeometryError(f"a geodesic graph needs at least 2 grid "
                                f"nodes, the grid has {n}")
        self._tree = cKDTree(_realify(nodes))  # for off-grid points only
        # node indices on the lattice (-1 outside); v joins i at x to j at
        # x + v, and its lead is positive, so i < j: each pair comes once
        inside = _midpoints_inside(self.domain,
                                   math.ceil(2.0 / grid.resolution))
        self._index = np.full(inside.shape, -1, dtype=np.int32)
        self._index[inside] = np.arange(n, dtype=np.int32)  # C order
        pairs, lengths = zip(*self._edges(_stencil(2 * d, self.k // 2)))
        # each pair in both directions, with no copy of the pairs alive
        rows, cols = (np.concatenate([p[k] for p in pairs]
                                     + [p[1 - k] for p in pairs])
                      for k in (0, 1))
        del pairs
        lengths = np.concatenate(lengths * 2)
        self.graph = csr_matrix((lengths, (rows, cols)), shape=(n, n))
        self._memo = None  # (batch bytes, limit, rows) of the last search

    # -- local metric helpers -----------------------------------------

    def _edges(self, stencil):
        """(node pairs (2, p), lengths) by offset and row chunk.  Offsets of
        one |v| share midpoints (lower corner + |v| / 2, the same floats):
        one metric row per corner, read whole (einsum rounds by layout)."""
        d, nodes = self.domain.dim, self.grid.nodes
        for u in np.unique(np.abs(stencil), axis=0):
            found, keep = zip(*[_lattice_pairs(self._index, v) for v in
                                stencil[np.all(np.abs(stencil) == u, axis=1)]])
            box = np.logical_or.reduce(keep)
            places = [np.flatnonzero(k[box]) for k in keep]
            for s in _row_chunks(np.count_nonzero(box), d * d):
                mid, parts = np.empty((s.stop - s.start, d), complex), []
                for ij, r in zip(found, places):
                    p = slice(*np.searchsorted(r, [s.start, s.stop]))
                    at, v = r[p] - s.start, np.zeros_like(mid)
                    a, b = np.take(nodes, ij[:, p], axis=0)
                    mid[at], v[at] = 0.5 * (a + b), b - a
                    parts.append((ij[:, p], v, at))
                g = self.engine.metric_batch(mid)
                for ij, v, at in parts:
                    q = np.einsum("nj,njk,nk->n", v.conj(), g, v).real
                    yield ij, np.sqrt(np.maximum(q[at], 0.0))

    def segment_length(self, a, b):
        """Bergman length of straight segments, midpoint rule (batched)."""
        a, b = (np.atleast_2d(np.asarray(x, dtype=complex)) for x in (a, b))
        out = np.empty(len(a))
        # a row's width is its metric's d x d values
        for s in _row_chunks(len(a), a.shape[1] ** 2):
            g = self.engine.metric_batch(0.5 * (a[s] + b[s]))
            v = b[s] - a[s]
            q = np.einsum("nj,njk,nk->n", v.conj(), g, v).real
            out[s] = np.sqrt(np.maximum(q, 0.0))
        return out

    def lattice_dbar(self, f):
        """d f / d zbar_j at every node, (n, d), from values f at the
        nodes: differences between lattice neighbours along Re z_j and
        Im z_j, central where a node has both neighbours on an axis,
        one-sided where it has one, NaN where it has none."""
        n, d = len(self.grid), self.domain.dim
        h, own = 2.0 / len(self._index), np.arange(n)
        out = np.zeros((n, d), dtype=complex)
        for k, v in enumerate(np.eye(2 * d, dtype=int)):
            up, down = own.copy(), own.copy()
            (i, j), _ = _lattice_pairs(self._index, v)
            up[i], down[j] = j, i
            steps = np.add(up != own, down != own, dtype=float)
            with np.errstate(invalid="ignore"):  # 0 / 0 with no neighbour
                slope = (f[up] - f[down]) / (h * steps)
            out[:, k % d] += 0.5 * slope if k < d else 0.5j * slope
        return out

    @cached_property
    def volume_density_nodes(self):
        """Bergman volume density at every grid node."""
        return self.engine.volume_density_batch(self.grid.nodes)

    # -- distances ----------------------------------------------------

    def nearest_node(self, p):
        p = np.asarray(p, dtype=complex).reshape(1, -1)
        return int(self._tree.query(_realify(p), k=1)[1][0])

    def distances_from_node(self, i: int, limit=np.inf):
        """Uncached graph distances from node i, ``inf`` beyond ``limit``;
        self.graph is symmetric, so a directed search is exact."""
        return dijkstra(self.graph, directed=True, indices=i, limit=limit)

    def _attach(self, points):
        """Neighbor indices and exact edge lengths for off-grid points,
        both (n_pts, k)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        k = min(self.k, len(self.grid))
        _, idx = self._tree.query(_realify(pts), k=k)
        idx = idx.reshape(len(pts), -1)
        lengths = self.segment_length(np.repeat(pts, k, axis=0),
                                      self.grid.nodes[idx.ravel()])
        return idx, lengths.reshape(idx.shape)

    def distances_from_point(self, p, limit=np.inf):
        """Graph distances from interior points to all nodes.

        A 1-D p is one point and gives its row; a 2-D (m, d) p is a
        batch and gives a list of m rows.  Every node within graph
        distance ``limit`` of a point gets its exact distance; nodes
        farther away read ``inf`` (scipy's Dijkstra keeps
        ``dist <= limit``).  A point on a grid node is searched from that
        node.  Rows are read-only.

        The field keeps one memo, the last search: a call whose batch
        has the same bytes and whose limit is no larger gets the memo's
        rows back, as the same arrays.  Any other call drops the memo
        and searches all its points in one multi-source Dijkstra.  Each
        off-grid point becomes a virtual node n + j whose only edges are
        its ``_attach`` edges, one CSR row stacked under the graph.  No edge
        enters a virtual node, so no search reaches another source, and
        ``self.graph`` is symmetric, so a directed search needs no
        virtual column and no transpose.  The caller bounds the batch
        (``metric_ball`` and ``boundary_scan`` search via ``_search_rows``).
        """
        p = np.asarray(p, dtype=complex)
        pts = np.atleast_2d(p)
        if not np.all(contains(self.domain, pts)):
            raise GeometryError("point outside the domain")
        key = pts.tobytes()
        memo = self._memo
        if memo is None or memo[0] != key or memo[1] < limit:
            memo = self._memo = None  # free the last rows before searching
            idx, lengths = self._attach(pts)
            off = ~_on_node(lengths)
            g, n = self.graph, len(self.grid)
            src = np.where(off, n + np.cumsum(off) - 1, idx[:, 0])
            if off.any():
                cols = idx[off]
                g = vstack([g, csr_matrix(
                    (lengths[off].ravel(), cols.ravel(),
                     np.arange(0, cols.size + 1, cols.shape[1])),
                    shape=(len(cols), n))], format="csr")
                g.resize((g.shape[0],) * 2)
            block = dijkstra(g, directed=True, indices=src, limit=limit)
            block.flags.writeable = False
            memo = self._memo = (key, limit, [row[:n] for row in block])
        return list(memo[2]) if p.ndim > 1 else memo[2][0]

    def distance(self, a, b):
        """Graph shortest-path Bergman distance between two points."""
        a, b = (np.asarray(x, dtype=complex).reshape(-1) for x in (a, b))
        if not contains(self.domain, b):
            raise GeometryError("point outside the domain")
        if np.array_equal(a, b):
            return 0.0
        dist = self.distances_from_point(a)
        idx, lengths = (v[0] for v in self._attach(b))
        val = dist[idx[0]] if _on_node(lengths) \
            else np.min(dist[idx] + lengths)
        if not np.isfinite(val):
            raise GeometryError(
                "grid graph is disconnected between the query points")
        return float(val)


@dataclass(frozen=True)
class MetricBall:
    center: np.ndarray
    members: np.ndarray  # node indices
    lebesgue_mass: float

    def __len__(self):
        return len(self.members)


def _ball(field: GeodesicField, zeta, r: float, dist) -> MetricBall:
    """The nodes with ``dist < r``, where dist is zeta's row; may be empty."""
    members = np.nonzero(dist < r)[0]
    return MetricBall(center=zeta, members=members,
                      lebesgue_mass=float(np.sum(field.grid.weights[members])))


def _search_rows(field: GeodesicField, pts, limit):
    """Each point's distance row, from calls of at most _SEARCH_BUDGET
    distances, so that no more are alive at once, the memo included."""
    step = max(1, _SEARCH_BUDGET // len(field.grid))
    for lo in range(0, len(pts), step):
        yield from field.distances_from_point(pts[lo:lo + step], limit=limit)


def metric_ball(field: GeodesicField, zeta, r: float):
    """The nodes at graph distance < r from zeta; an empty ball raises.

    A 2-D (m, d) zeta is a batch and gives a list of m balls, searched
    through _search_rows."""
    if r <= 0:
        raise GeometryError("ball radius must be positive")
    zeta = np.asarray(zeta, dtype=complex)
    pts = np.atleast_2d(zeta)
    balls = []
    for c, dist in zip(pts, _search_rows(field, pts, r)):
        balls.append(_ball(field, c, r, dist))
        if not len(balls[-1]):
            raise GeometryError(
                f"metric ball of radius {r} contains no grid nodes")
    return balls if zeta.ndim > 1 else balls[0]


@dataclass
class Net:
    """Maximal r-separated set of grid nodes covering the grid; ``near``
    holds the graph distances (n_centers, n_nodes) below 2r, the outer
    radius of the cutoffs, and an absent entry means farther."""

    separation: float
    centers: np.ndarray  # node indices, insertion order
    near: csr_matrix = field(repr=False)
    field: GeodesicField = field(repr=False, default=None)

    def __len__(self):
        return len(self.centers)

    def center_points(self):
        return self.field.grid.nodes[self.centers]


def build_net(field: GeodesicField, r: float) -> Net:
    """Greedy farthest-first maximal packing; ties break to the lowest
    node index, so the result is deterministic."""
    if not r > 0:
        raise GeometryError("net radius must be positive")
    centers = [field.nearest_node(field.domain.anchor_point)]
    dmin, far, cols, vals = np.inf, math.inf, [], []
    while True:
        # a node beyond far keeps its dmin, and near needs all below 2r
        row = field.distances_from_node(centers[-1], max(far, 2.0 * r))
        cols.append(np.nonzero(row < 2.0 * r)[0])
        vals.append(row[cols[-1]])
        dmin = np.minimum(dmin, row)
        far = float(np.max(dmin))
        if far < r:
            break
        centers.append(int(np.argmax(dmin)))  # the lowest tied index
    indptr = np.cumsum([0] + [len(c) for c in cols])
    near = csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr),
                      shape=(len(centers), len(field.grid)))
    return Net(separation=float(r), centers=np.array(centers, dtype=int),
               field=field, near=near)


def multiplicity(net: Net, R: float) -> int:
    """max over grid nodes x of #{centers within graph distance R of x}."""
    if R > 2.0 * net.separation:
        raise GeometryError("multiplicity radius beyond 2r, the table's reach")
    near = net.near
    return int(np.max(np.bincount(near.indices[near.data < R],
                                  minlength=near.shape[1])))


def separation_audit(net: Net) -> float:
    """Smallest pairwise center distance (>= separation if valid); inf
    when no two centers lie within twice the separation."""
    pair = net.near[:, net.centers].tocoo()
    off = pair.data[pair.row != pair.col]
    return float(np.min(off)) if len(off) else math.inf


def covering_audit(net: Net) -> float:
    """Fraction of grid nodes within the separation radius of a center."""
    near = net.near
    covered = np.unique(near.indices[near.data < net.separation])
    return len(covered) / near.shape[1]


# -- partitions of unity ---------------------------------------------


def _ramp(t, r_inner, r_outer):
    """C^1 cutoff: 1 below r_inner, 0 above r_outer, cubic blend between."""
    s = np.clip((t - r_inner) / (r_outer - r_inner), 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def _cutoffs(table, r_inner, r_outer):
    """Ramped CSR distances, without the entries that round to 0.0, each
    divided by its column sum (bincount adds in center order)."""
    chi = table.copy()
    chi.data = _ramp(chi.data, r_inner, r_outer)
    chi.eliminate_zeros()
    chi.data /= np.bincount(chi.indices, chi.data, chi.shape[1])[chi.indices]
    return chi


@dataclass
class Partition:
    """Cutoffs chi_hat_m = chi_m / sum_n chi_n in metric balls; columns
    of ``values`` sum to 1."""

    net: Net
    r_inner: float
    r_outer: float
    values: csr_matrix  # (n_centers, n_nodes), Net.near's layout

    def evaluate(self, points):
        """chi_hat_m at interior points, CSR (n_centers, n_pts) with an
        empty column outside every support.  A distance is the least
        ``_attach`` edge plus table entry; an omitted entry ramps to 0."""
        idx, lengths = self.net.field._attach(points)
        on = _on_node(lengths)  # a point on a node reads its own entries
        idx[on], lengths[on] = idx[on, :1], 0.0
        m = len(self.net)
        rows = self.net.near.T.tocsr()[idx.ravel()]
        slot = np.repeat(np.arange(idx.size), np.diff(rows.indptr))
        key = slot // idx.shape[1] * m + rows.indices  # point-major
        order = np.argsort(key)
        key, dist = key[order], (rows.data + lengths.ravel()[slot])[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        point, center = divmod(key[first], m)
        table = csr_matrix((np.minimum.reduceat(dist, first), (center, point)),
                           shape=(m, len(idx)))
        return _cutoffs(table, self.r_inner, self.r_outer)


def partition_of_unity(net: Net) -> Partition:
    """The normalized cutoffs on the grid nodes; each ramps from 1 at the
    net separation (covering makes the raw sum >= 1 everywhere) to 0 at
    twice the separation."""
    r_inner, r_outer = net.separation, 2.0 * net.separation
    chi = _cutoffs(net.near, r_inner, r_outer)
    if len(np.unique(chi.indices)) < chi.shape[1]:
        raise GeometryError(
            "a grid node is not covered by any cutoff support")
    return Partition(net=net, r_inner=r_inner, r_outer=r_outer, values=chi)


# -- charts on homogeneous models ------------------------------------

_CR_SAMPLES = 64  # sample points of the Cauchy-Riemann residual


@dataclass(frozen=True)
class ChartMap:
    """Holomorphic embedding of the unit ball with Phi(0) = center."""

    domain: DomainSpec
    center: np.ndarray
    rho: float = 0.5

    def __post_init__(self):
        if not self.domain.homogeneous:
            raise GeometryError(
                "charts are only constructed on balls and polydiscs")

    def forward(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=complex))
        return self._automorphism(self.rho * w, self.center)

    def inverse(self, z):
        # phi_a is an involution; a Moebius factor inverts at -a
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        a = self.center if self.domain.kind == "ball" else -self.center
        return self._automorphism(z, a) / self.rho

    def _automorphism(self, u, a):
        """The automorphism taking 0 to a: phi_a on the ball, the Moebius
        map (u + a) / (1 + conj(a) u) in each polydisc factor."""
        if self.domain.kind == "ball":
            na2 = float(np.sum(np.abs(a) ** 2))
            if na2 < 1e-30:
                return u
            s = math.sqrt(1.0 - na2)
            inner = u @ a.conj()
            proj = (inner / na2)[:, None] * a[None, :]
            return (a[None, :] - proj - s * (u - proj)) \
                / (1.0 - inner)[:, None]
        return (u + a[None, :]) / (1.0 + a.conj()[None, :] * u)

    def det_jacobian(self, w):
        """det Phi'(w) over a batch, analytic for the polydisc, exact
        formula up to a unimodular constant for the ball."""
        w = np.atleast_2d(np.asarray(w, dtype=complex))
        a = self.center
        d = self.domain.dim
        if self.domain.kind == "ball":
            na2 = float(np.sum(np.abs(a) ** 2))
            inner = (self.rho * w) @ a.conj()
            return (-1.0) ** d * self.rho ** d \
                * (1.0 - na2) ** ((d + 1) / 2.0) / (1.0 - inner) ** (d + 1)
        u = self.rho * w
        fac = self.rho * (1.0 - np.abs(a) ** 2)[None, :] \
            / (1.0 + a.conj()[None, :] * u) ** 2
        return np.prod(fac, axis=1)

    def dlog_absdet(self, w):
        """euclidean norm of (d/dw_j) log |det Phi'(w)|, batched.

        For holomorphic f, the holomorphic gradient of log |f| is half
        the gradient of log f; here in closed form from det_jacobian.
        """
        w = np.atleast_2d(np.asarray(w, dtype=complex))
        a_bar = self.center.conj()[None, :]
        if self.domain.kind == "ball":
            d = self.domain.dim
            inner = (self.rho * w) @ self.center.conj()
            grad = (d + 1) * self.rho * a_bar / (2.0 * (1.0 - inner))[:, None]
        else:
            grad = -self.rho * a_bar / (1.0 + a_bar * self.rho * w)
        return np.sqrt(np.sum(np.abs(grad) ** 2, axis=1))

    def cauchy_riemann_residual(self):
        """Max |d Phi / d wbar| over seeded sample points in 0.5 B."""
        rng = np.random.default_rng(0)
        d = self.domain.dim
        n = _CR_SAMPLES
        w = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        w *= (0.5 * rng.uniform(0, 1, n)
              / np.maximum(np.linalg.norm(w, axis=1), 1e-12))[:, None]
        return float(np.max(np.abs(central_dbar(self.forward, w))))


def chart(dom: DomainSpec, zeta, rho=0.5) -> ChartMap:
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    if not contains(dom, zeta):
        raise GeometryError("chart center must be interior")
    return ChartMap(domain=dom, center=zeta, rho=float(rho))


def beta(chartmap: ChartMap, engine: KernelEngine, u, w):
    """B(Phi(u), Phi(w)) det Phi'(u) conj(det Phi'(w))."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    zu = chartmap.forward(u[None, :])[0]
    zw = chartmap.forward(w[None, :])[0]
    val = engine.kernel(zu, zw)
    return complex(val * chartmap.det_jacobian(u[None, :])[0]
                   * np.conj(chartmap.det_jacobian(w[None, :])[0]))
