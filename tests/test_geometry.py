import math
import weakref

import numpy as np
import pytest
from scipy.sparse import csr_matrix, triu
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from bergmanlab import domains as dom, harness, kernels
from bergmanlab.approximation import ray_point, ray_directions
from bergmanlab.geometry import (GeodesicField, GeometryError,
                                 _lattice_pairs, _ramp, _realify, _stencil,
                                 beta, build_net, chart,
                                 covering_audit, metric_ball, multiplicity,
                                 Net, Partition, partition_of_unity,
                                 separation_audit)
from bergmanlab.kernels import engine_for

from conftest import (assert_no_stored_zeros, dense_evaluate,
                      dense_partition_values, lattice_neighbours)

DIST_0_HALF = math.sqrt(2.0) * math.atanh(0.5)  # 0.77682...
RHO = math.tanh(1.0 / math.sqrt(2.0))


class TestDistances:
    def test_disc_distance_oracle_default_grid(self, disc_field):
        d = disc_field.distance(np.array([0.0j]), np.array([0.5 + 0.0j]))
        assert d == pytest.approx(DIST_0_HALF, rel=0.02)

    def test_disc_distance_oracle_half_resolution(self, disc_field_fine):
        d = disc_field_fine.distance(np.array([0.0j]),
                                     np.array([0.5 + 0.0j]))
        assert d == pytest.approx(DIST_0_HALF, rel=0.005)

    def test_symmetry(self, disc_field):
        a, b = np.array([0.2 + 0.1j]), np.array([-0.3 + 0.4j])
        assert disc_field.distance(a, b) == pytest.approx(
            disc_field.distance(b, a), rel=1e-9)

    def test_triangle_inequality(self, disc_field):
        a = np.array([0.0j])
        b = np.array([0.4 + 0.0j])
        c = np.array([0.2 + 0.3j])
        ab = disc_field.distance(a, b)
        ac = disc_field.distance(a, c)
        cb = disc_field.distance(c, b)
        assert ab <= ac + cb + 1e-9

    def test_moebius_invariance_spot_check(self, disc_field):
        # dist(0, a) depends only on |a|
        d1 = disc_field.distance(np.array([0.0j]), np.array([0.5 + 0.0j]))
        d2 = disc_field.distance(np.array([0.0j]), np.array([0.5j]))
        assert d1 == pytest.approx(d2, rel=0.02)

    def test_outside_point_rejected(self, disc_field):
        with pytest.raises(GeometryError):
            disc_field.distance(np.array([0.0j]), np.array([1.2 + 0.0j]))


def bergman_distance(domain, a, b):
    """The closed-form Bergman distance between batches of points: on
    the ball in C^d sqrt(d + 1) artanh |phi_a(b)|, on the polydisc the
    l2 sum of the factor distances sqrt(2) artanh |phi_b(a)| (the disc's
    for d = 1)."""
    if domain.kind == "ball":
        s = (1.0 - np.sum(np.abs(a) ** 2, axis=1)) \
            * (1.0 - np.sum(np.abs(b) ** 2, axis=1)) \
            / np.abs(1.0 - np.sum(b * a.conj(), axis=1)) ** 2
        return math.sqrt(domain.dim + 1.0) * np.arctanh(np.sqrt(1.0 - s))
    factor = math.sqrt(2.0) * np.arctanh(np.abs((a - b)
                                                / (1.0 - b.conj() * a)))
    return np.sqrt(np.sum(factor ** 2, axis=1))


def _off_axis(domain, m, rng):
    """m seeded points with every coordinate off the real and imaginary
    axes: moduli uniform in (0.3, 0.8) per coordinate on the polydisc,
    norm uniform in (0.3, 0.8) on the ball."""
    d = domain.dim
    if domain.kind == "ball":
        u = rng.normal(size=(m, 2 * d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        return (u[:, :d] + 1j * u[:, d:]) * rng.uniform(0.3, 0.8, (m, 1))
    return rng.uniform(0.3, 0.8, (m, d)) \
        * np.exp(2j * math.pi * rng.uniform(size=(m, d)))


# mean and max relative error of field.distance over the 64 pairs of
# TestDistanceOracle, as the kNN graph measured them; they must not rise
_ORACLE_CEILINGS = {"disc_field": (0.011748, 0.030188),
                    "ball2_field": (0.135519, 0.243749),
                    "bidisc_field": (0.167718, 0.320133)}


class TestDistanceOracle:
    """The graph distance against the closed form over 64 seeded pairs
    (8 sources x 8 targets) on each default-resolution field."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_CEILINGS))
    def test_error_within_the_ceilings(self, request, name):
        field = request.getfixturevalue(name)
        rng = np.random.default_rng(8)
        a, b = (_off_axis(field.domain, 8, rng) for _ in range(2))
        idx, lengths = field._attach(b)
        graph = np.array([np.min(row[idx] + lengths, axis=1)
                          for row in field.distances_from_point(a)])
        exact = bergman_distance(field.domain, np.repeat(a, 8, axis=0),
                                 np.tile(b, (8, 1))).reshape(8, 8)
        err = np.abs(graph - exact) / exact
        print(f"{name}: mean {err.mean():.6f}, max {err.max():.6f}")
        mean, top = _ORACLE_CEILINGS[name]
        assert err.mean() <= mean and err.max() <= top


def _lil_reference(field, p):
    """The former off-grid search: a LIL copy of the whole graph with the
    point as node n joined both ways, searched undirected."""
    idx, lengths = (v[0] for v in field._attach(p))
    n = len(field.grid)
    aug = field.graph.tolil(copy=True)
    aug.resize((n + 1, n + 1))
    for i, l in zip(idx, lengths):
        aug[n, i] = l
        aug[i, n] = l
    return dijkstra(csr_matrix(aug), directed=False, indices=n)[:n]


_SMALL = {"disc": (dom.disc, 0.05, None),
          "polydisc2": (lambda: dom.polydisc(2), 0.2, None),
          "egg2": (lambda: dom.egg(2), 0.25, 6)}


# fields for the closed-form lattice dbar, each with its own resolution
_LATTICE = {"polydisc2": (lambda: dom.polydisc(2), 0.25, None),
            "ball2": (lambda: dom.ball(2), 0.2, None),
            "egg2": _SMALL["egg2"]}


def _small(name, cases=_SMALL):
    make, res, degree = cases[name]
    domain = make()
    grid = dom.build_grid(domain, res)
    engine = engine_for(domain) if degree is None \
        else engine_for(domain, grid, degree=degree)
    return GeodesicField(engine, grid)


@pytest.fixture(scope="module", params=sorted(_SMALL))
def small_field(request):
    """A coarse field of its own, so its search memo starts empty."""
    return _small(request.param)


def _points(field, ts):
    """Off-grid ray points; each test takes its own t values, so no test
    reads a row another one left in the memo."""
    dirs = ray_directions(field.domain, 2, seed=3)
    return [ray_point(field.domain, u, t) for u in dirs for t in ts]


class TestOffGridSearch:
    def test_matches_lil_reference(self, small_field):
        for p in _points(small_field, (0.2, 0.45, 0.7)):
            assert np.array_equal(small_field.distances_from_point(p),
                                  _lil_reference(small_field, p))

    def test_limit_keeps_exactly_the_near_nodes(self, small_field):
        r = 1.0
        for p in _points(small_field, (0.3, 0.6)):
            full = _lil_reference(small_field, p)
            assert np.any(full <= r) and np.any(full > r)
            near = small_field.distances_from_point(p, limit=r)
            assert np.array_equal(near, np.where(full <= r, full, np.inf))

    def test_larger_limit_recomputes(self, small_field):
        for p in _points(small_field, (0.35,)):
            small_field.distances_from_point(p, limit=1.0)
            full = small_field.distances_from_point(p)
            assert np.array_equal(full, _lil_reference(small_field, p))
            assert small_field.distances_from_point(p, limit=0.5) is full

    def test_metric_ball_members(self, small_field):
        for p in _points(small_field, (0.55,)):
            ball = metric_ball(small_field, p, 1.0)
            full = _lil_reference(small_field, p)
            assert np.array_equal(ball.members, np.nonzero(full < 1.0)[0])

    def test_on_node_point_obeys_limit(self, small_field):
        i = len(small_field.grid) // 3
        p = small_field.grid.nodes[i]
        full = dijkstra(small_field.graph, directed=False, indices=i)
        assert np.any(full <= 0.5) and np.any(full > 0.5)
        near = small_field.distances_from_point(p, limit=0.5)
        assert np.array_equal(near, np.where(full <= 0.5, full, np.inf))
        assert np.array_equal(near, small_field.distances_from_node(i, 0.5))

    def test_batched_attach_matches_single_points(self, small_field):
        pts = np.stack(_points(small_field, (0.25, 0.5, 0.75)))
        idx, lengths = small_field._attach(pts)
        assert idx.shape == lengths.shape == (len(pts), small_field.k)
        for p, i, l in zip(pts, idx, lengths):
            one_i, one_l = small_field._attach(p)
            assert one_i.shape == (1, small_field.k)
            assert np.array_equal(one_i[0], i)
            assert np.array_equal(one_l[0], l)

    def test_node_search_matches_undirected(self, small_field):
        i = len(small_field.grid) // 2
        assert np.array_equal(
            small_field.distances_from_node(i),
            dijkstra(small_field.graph, directed=False, indices=i))


def _node_row(field, i, limit=np.inf):
    return dijkstra(field.graph, directed=False, indices=i, limit=limit)


def _bounded(full, limit):
    return np.where(full <= limit, full, np.inf)


class TestBatchedSearch:
    """A 2-D input is one batched search on one augmented graph; each of
    its rows must equal the one-point row bit for bit."""

    def test_rows_equal_one_point_rows(self, small_field):
        pts = np.stack(_points(small_field, (0.15, 0.4, 0.65)))
        rows = small_field.distances_from_point(pts)
        assert isinstance(rows, list) and len(rows) == len(pts)
        for p, row in zip(pts, rows):
            assert np.array_equal(row, _lil_reference(small_field, p))
            one = small_field.distances_from_point(p)
            assert one is not row and np.array_equal(one, row)

    def test_mixed_batch_with_a_repeat(self, small_field):
        a, b = _points(small_field, (0.1,))
        n = len(small_field.grid)
        i, j = n // 5, 2 * n // 3
        nodes = small_field.grid.nodes
        pts = np.stack([a, nodes[i], b, a, nodes[j]])
        for limit in (0.8, np.inf):
            rows = small_field.distances_from_point(pts, limit=limit)
            for p, row in ((a, rows[0]), (b, rows[2])):
                assert np.array_equal(
                    row, _bounded(_lil_reference(small_field, p), limit))
            assert np.array_equal(rows[3], rows[0])
            assert np.array_equal(rows[1], _node_row(small_field, i, limit))
            assert np.array_equal(rows[4], _node_row(small_field, j, limit))

    def test_budget_splits_the_sources(self, small_field, monkeypatch):
        from bergmanlab import geometry
        pts = np.stack(_points(small_field, (0.12, 0.32, 0.52)))
        n, m = len(small_field.grid), len(pts)
        monkeypatch.setattr(geometry, "_SEARCH_BUDGET", 2 * (n + m))
        calls = _count_searches(monkeypatch)
        rows = small_field.distances_from_point(pts, limit=1.0)
        assert calls == [m]  # a direct call is one search, whatever its size
        for p, row in zip(pts, rows):
            assert np.array_equal(
                row, _bounded(_lil_reference(small_field, p), 1.0))
        # metric_ball sends at most budget / n centres per search
        nodes = small_field.grid.nodes[np.arange(0, n, n // m)[:m]]
        balls = metric_ball(small_field, nodes, 1.0)
        assert calls[1:] == [2, 2, 2]
        for p, ball in zip(nodes, balls):
            assert np.array_equal(ball.members,
                                  metric_ball(small_field, p, 1.0).members)

    def test_outside_point_raises(self, small_field, monkeypatch):
        a, _ = _points(small_field, (0.05,))
        out = 2.0 * ray_point(small_field.domain,
                              ray_directions(small_field.domain, 1)[0],
                              0.999)
        row = small_field.distances_from_point(a)
        calls = _count_searches(monkeypatch)
        with pytest.raises(GeometryError, match="point outside the domain"):
            small_field.distances_from_point(np.stack([a, out]))
        # the check comes before the memo is touched
        assert small_field.distances_from_point(a) is row and calls == []
        with pytest.raises(GeometryError, match="point outside the domain"):
            metric_ball(small_field, np.stack([a, out]), 1.0)


def _count_searches(monkeypatch):
    """The number of sources of every Dijkstra call from here on."""
    from bergmanlab import geometry
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(kwargs["indices"]))
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(geometry, "dijkstra", counted)
    return calls


class TestSearchMemo:
    """A field remembers its last search, and only that."""

    def test_same_batch_at_no_larger_limit_is_not_searched(
            self, small_field, monkeypatch):
        pts = np.stack(_points(small_field, (0.18, 0.48)))
        rows = small_field.distances_from_point(pts, limit=1.0)
        calls = _count_searches(monkeypatch)
        for limit in (1.0, 0.5):
            again = small_field.distances_from_point(pts.copy(), limit=limit)
            assert len(again) == len(rows)
            assert all(x is y for x, y in zip(again, rows))
        assert calls == []

    def test_larger_limit_or_other_batch_is_one_search(self, small_field,
                                                       monkeypatch):
        pts = np.stack(_points(small_field, (0.28, 0.58)))
        near = small_field.distances_from_point(pts, limit=0.8)
        calls = _count_searches(monkeypatch)
        full = small_field.distances_from_point(pts)
        assert calls == [len(pts)]
        for p, row, short in zip(pts, full, near):
            assert np.array_equal(row, _lil_reference(small_field, p))
            assert np.array_equal(short, _bounded(row, 0.8))
        back = small_field.distances_from_point(pts[::-1])
        assert calls == [len(pts)] * 2
        for x, y in zip(back, full[::-1]):
            assert x is not y and np.array_equal(x, y)

    def test_holds_only_the_last_call(self, small_field):
        pts = _points(small_field, (0.22, 0.42, 0.62))
        first = small_field.distances_from_point(pts[0])
        row, base = weakref.ref(first), weakref.ref(first.base)
        for p in pts[1:]:
            small_field.distances_from_point(p)
        assert row() is first  # the caller still holds it
        del first
        assert row() is None and base() is None

    def test_distances_from_a_node_point_search_once(self, small_field,
                                                     monkeypatch):
        i = len(small_field.grid) // 4
        a = small_field.grid.nodes[i]
        b, c = _points(small_field, (0.3,))
        calls = _count_searches(monkeypatch)
        got = [small_field.distance(a, q) for q in (b, c)]
        assert calls == [1]
        full = _node_row(small_field, i)
        for q, d in zip((b, c), got):
            idx, lengths = (v[0] for v in small_field._attach(q))
            assert d == float(np.min(full[idx] + lengths))

    def test_rows_are_read_only(self, small_field):
        a, b = _points(small_field, (0.38,))
        with pytest.raises(ValueError):
            small_field.distances_from_point(a)[0] = 0.0
        rows = small_field.distances_from_point(np.stack([a, b]), limit=1.0)
        with pytest.raises(ValueError):
            rows[1][:] = 0.0


def _knn_rows(field, nodes_at):
    """The former graph build's rows at the given nodes, kept as the
    reference: each node's field.k nearest nodes by a kd-tree query,
    ascending, with one segment length per pair."""
    nodes = field.grid.nodes
    tree = cKDTree(_realify(nodes))
    idx = np.sort(tree.query(_realify(nodes[nodes_at]), k=field.k + 1)[1]
                  [:, 1:], axis=1)
    lengths = field.segment_length(np.repeat(nodes[nodes_at], field.k, 0),
                                   nodes[idx.ravel()])
    return idx, lengths.reshape(idx.shape)


def _stencil_pairs(field, per_dim=8):
    """Every node pair (i, j), i < j, whose lattice points differ by an
    offset of the stencil, found through a dict of the lattice points,
    each read off its node's coordinates (a midpoint is -1 + h (x + 1/2)
    with h = 2 / n)."""
    n = math.ceil(2.0 / field.grid.resolution)
    nodes = field.grid.nodes
    x = np.rint((np.hstack([nodes.real, nodes.imag]) + 1.0) * (n / 2.0)
                - 0.5).astype(int)
    at = {tuple(p): i for i, p in enumerate(x.tolist())}
    return sorted((i, at[y]) for x0, i in at.items()
                  for v in _stencil(2 * field.domain.dim,
                                    per_dim * field.domain.dim)
                  if (y := tuple(np.add(x0, v))) in at)


def _assert_interior_rows_match(field):
    """In four real dimensions the k = 32 nearest nodes of a node whose
    32 stencil neighbours (e_i and e_i +- e_j) are all inside are
    exactly those, so its graph row is the kNN reference's row."""
    g = field.graph
    counts = np.diff(g.indptr)
    assert counts.max() == field.k == 32
    inner = np.flatnonzero(counts == field.k)
    assert len(inner) >= 300
    pos = g.indptr[inner][:, None] + np.arange(field.k)
    idx, lengths = _knn_rows(field, inner)
    assert np.array_equal(g.indices[pos], idx)
    np.testing.assert_allclose(g.data[pos], lengths, rtol=1e-12, atol=0.0)


def _per_offset_graph(field, per_dim):
    """The graph as built when every stencil offset measured its own
    pairs through segment_length, kept as the reference, and the number
    of distinct midpoints among the pairs of each |v|, summed.  Offsets
    of different |v| can meet at one lattice midpoint, (1, 0) and (1, 2)
    in the disc's plane, but 2 c_j and c_(j-1) + c_(j+1) need not round
    alike, so only equal |v| share."""
    nodes, d = field.grid.nodes, field.domain.dim
    stencil = _stencil(2 * d, per_dim * d)
    pairs = [_lattice_pairs(field._index, v)[0] for v in stencil]
    lengths = [field.segment_length(*nodes[p]) for p in pairs]
    rows, cols = (np.concatenate([p[k] for p in pairs]
                                 + [p[1 - k] for p in pairs])
                  for k in (0, 1))
    graph = csr_matrix((np.concatenate(lengths * 2), (rows, cols)),
                       shape=(len(nodes), len(nodes)))
    distinct = 0
    for u in {tuple(u) for u in np.abs(stencil).tolist()}:
        mids = [0.5 * (nodes[i] + nodes[j]) for v, (i, j) in
                zip(stencil, pairs) if tuple(np.abs(v).tolist()) == u]
        distinct += len(np.unique(_realify(np.concatenate(mids)), axis=0))
    return graph, distinct


# (domain, resolution, basis degree or None for the closed form); egg2 at
# 0.18 has metric batches large enough for numpy to store them transposed
_SHARED = {"disc": (dom.disc, 0.05, None),
           "polydisc2": (lambda: dom.polydisc(2), 0.25, None),
           "ball2": (lambda: dom.ball(2), 0.2, None),
           "egg2": (lambda: dom.egg(2), 0.18, 10)}


@pytest.fixture(scope="module", params=sorted(_SHARED))
def shared_case(request):
    make, res, degree = _SHARED[request.param]
    domain = make()
    grid = dom.build_grid(domain, res)
    engine = engine_for(domain) if degree is None \
        else engine_for(domain, grid, degree=degree)
    return engine, grid


class TestGraph:
    @pytest.mark.parametrize("dims,count,size,shells", [
        (2, 8, 8, [1, 2, 5]), (4, 16, 16, [1, 2]), (6, 24, 36, [1, 2]),
        (2, 32, 32, [1, 2, 5, 10, 13, 17, 25, 26, 29]),
        (2, 1, 2, [1])])
    def test_stencil_takes_whole_shells(self, dims, count, size, shells):
        v = _stencil(dims, count)
        assert len(v) == size
        assert sorted(set(np.sum(v * v, axis=1).tolist())) == shells
        assert np.all(np.gcd.reduce(v, axis=1) == 1)
        lead = v[np.arange(len(v)), np.argmax(v != 0, axis=1)]
        assert np.all(lead > 0)  # one of each +-v pair
        assert len({tuple(x) for x in v}) == size

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("per_dim", [8, 20])
    def test_shared_midpoints_match_per_offset_build(
            self, shared_case, per_dim, workers, monkeypatch):
        """One metric row per distinct midpoint, and every edge length
        bit for bit that of measuring each offset on its own."""
        engine, grid = shared_case
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        rows = []
        batch = engine.metric_batch
        monkeypatch.setattr(engine, "metric_batch",
                            lambda z: rows.append(len(z)) or batch(z))
        field = GeodesicField(engine, grid, neighbors_per_dim=per_dim)
        built = sum(rows)
        ref, distinct = _per_offset_graph(field, per_dim)
        assert built == distinct < sum(rows) - built
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(field.graph, key),
                                  getattr(ref, key)), key

    def test_canonical_symmetric_each_pair_once(self, small_field):
        g = small_field.graph
        assert g.has_canonical_format  # sorted rows, no duplicate entries
        assert (g != g.T).nnz == 0 and g.diagonal().max() == 0.0
        upper = csr_matrix(triu(g, k=1))
        assert 2 * upper.nnz == g.nnz
        rows = np.repeat(np.arange(g.shape[0]), np.diff(upper.indptr))
        assert list(zip(rows.tolist(), upper.indices.tolist())) \
            == _stencil_pairs(small_field)

    def test_offsets_longer_than_the_lattice(self, disc_engine,
                                             disc_domain):
        # 4 cells per axis, and the 32-offset stencil reaches |v_k| = 5
        field = GeodesicField(disc_engine, dom.build_grid(disc_domain, 0.5),
                              neighbors_per_dim=32)
        upper = csr_matrix(triu(field.graph, k=1)).tocoo()
        assert list(zip(upper.row.tolist(), upper.col.tolist())) \
            == _stencil_pairs(field, per_dim=32)

    @pytest.mark.parametrize("small_field", ["polydisc2", "egg2"],
                             indirect=True)
    def test_interior_rows_match_knn_reference(self, small_field):
        _assert_interior_rows_match(small_field)

    def test_interior_rows_match_knn_reference_ball2(self, ball2_field):
        _assert_interior_rows_match(ball2_field)

    def test_every_cli_domain_is_connected(self):
        for name, (domain, _) in sorted(harness._DOMAINS.items()):
            grid = dom.build_grid(domain, 0.5 if domain.dim == 3 else 0.25)
            engine = engine_for(domain) if domain.homogeneous \
                else engine_for(domain, grid, degree=4)
            field = GeodesicField(engine, grid)
            assert connected_components(field.graph)[0] == 1, name

    def test_product_polar_grid_rejected(self, disc_engine, disc_domain):
        grid = dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                              degree=4)
        with pytest.raises(GeometryError, match="tensor-midpoint grid"):
            GeodesicField(disc_engine, grid)

    def test_segment_length_symmetric_bitwise(self, small_field):
        # covers the closed-form (disc, polydisc2) and numerical (egg2)
        # engines; the graph build measures each pair in one direction.
        # Scaled nodes stay inside (every domain here is Reinhardt) and
        # off the grid.
        nodes = small_field.grid.nodes
        rng = np.random.default_rng(7)
        a, b = (nodes[rng.integers(len(nodes), size=300)]
                * rng.uniform(0.3, 1.0, (300, 1)) for _ in range(2))
        assert np.array_equal(small_field.segment_length(a, b),
                              small_field.segment_length(b, a))

    def test_segment_has_one_length_in_any_batch(self, monkeypatch):
        # 250,001 rows once ended the batch on a one-row chunk, which a
        # numerical engine sends through gemv (see kernels._row_chunks);
        # on two workers each chunk's metric batch runs inside its task
        domain = dom.egg(2)
        grid = dom.build_grid(domain, 0.3)
        field = GeodesicField(engine_for(domain, grid, degree=6), grid)
        rng = np.random.default_rng(11)
        a, b = (grid.nodes[rng.integers(len(grid), size=250_001)]
                for _ in range(2))
        lengths = field.segment_length(a, b)
        assert lengths[-1] == field.segment_length(a[-2:], b[-2:])[-1]
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        assert np.array_equal(field.segment_length(a, b), lengths)

    @pytest.mark.parametrize("per_dim", [0, -1])
    def test_nonpositive_neighbor_count_rejected(self, disc_engine,
                                                 disc_grid, per_dim):
        with pytest.raises(GeometryError,
                           match=f"^neighbors_per_dim must be at least 1, "
                                 f"not {per_dim}$"):
            GeodesicField(disc_engine, disc_grid, neighbors_per_dim=per_dim)


class TestLatticeDbar:
    @pytest.mark.parametrize("case", ["disc"] + sorted(_LATTICE))
    def test_closed_forms(self, case, disc_field):
        """conj(z_j) gives delta_jk and z_j gives 0 at every node; z_1^2
        gives 0 where a node has both neighbours on every axis, and at
        most the lattice step (one-sided) elsewhere."""
        field = disc_field if case == "disc" else _small(case, _LATTICE)
        z, d = field.grid.nodes, field.domain.dim
        for j in range(d):
            conj = field.lattice_dbar(np.conj(z[:, j]))
            assert np.all(np.isfinite(conj))  # every node is differenced
            assert np.max(np.abs(conj - np.eye(d)[j])) <= 1e-12
            assert np.max(np.abs(field.lattice_dbar(z[:, j]))) <= 1e-12
        up, down = lattice_neighbours(field.grid)
        inner = np.all((up >= 0) & (down >= 0), axis=1)
        assert 0 < np.count_nonzero(inner) < len(z)
        sq = np.max(np.abs(field.lattice_dbar(z[:, 0] ** 2)), axis=1)
        assert np.max(sq[inner]) <= 1e-12
        assert np.max(sq) <= 2.0 / math.ceil(2.0 / field.grid.resolution)

    def test_nan_where_an_axis_has_no_neighbour(self, ball2_engine):
        # 7 cells per axis: some lattice lines through the ball hold one
        # node, and z_j's component needs a neighbour on Re z_j and Im z_j
        grid = dom.build_grid(dom.ball(2), 0.3)
        up, down = lattice_neighbours(grid)
        lone = (up < 0) & (down < 0)
        assert lone.any()
        dbar = GeodesicField(ball2_engine, grid).lattice_dbar(
            np.conj(grid.nodes[:, 0]))
        assert np.array_equal(np.isnan(dbar), lone[:, :2] | lone[:, 2:])
        err = np.abs(dbar - [1.0, 0.0])
        assert np.max(err[~np.isnan(dbar)]) <= 1e-12


class TestMetricBalls:
    def test_ball_euclidean_radius(self, disc_field):
        ball = metric_ball(disc_field, np.array([0.0j]), 1.0)
        radius = np.max(np.abs(disc_field.grid.nodes[ball.members, 0]))
        assert radius == pytest.approx(RHO, abs=0.02)

    def test_ball_lebesgue_mass(self, disc_field):
        ball = metric_ball(disc_field, np.array([0.0j]), 1.0)
        assert ball.lebesgue_mass == pytest.approx(math.pi * RHO ** 2,
                                                   rel=0.05)

    def test_batch_gives_the_one_point_balls(self, disc_field):
        pts = np.array([[0.0j], [0.3 + 0.2j], disc_field.grid.nodes[7]])
        balls = metric_ball(disc_field, pts, 0.6)
        assert len(balls) == len(pts)
        for p, ball in zip(pts, balls):
            one = metric_ball(disc_field, p, 0.6)
            assert np.array_equal(ball.members, one.members)
            assert ball.lebesgue_mass == one.lebesgue_mass
            assert np.array_equal(ball.center, p)

    def test_empty_ball_in_a_batch_raises(self, disc_field):
        pts = np.array([[0.0j], [0.3 + 0.01j]])
        with pytest.raises(GeometryError, match="contains no grid nodes"):
            metric_ball(disc_field, pts, 1e-4)

    def test_monotone_in_radius(self, disc_field):
        small = metric_ball(disc_field, np.array([0.2 + 0.1j]), 0.5)
        large = metric_ball(disc_field, np.array([0.2 + 0.1j]), 1.0)
        assert set(small.members) <= set(large.members)


class TestNets:
    def test_separation_and_covering(self, disc_field):
        net = build_net(disc_field, 0.5)
        assert separation_audit(net) >= 0.5
        assert covering_audit(net) == 1.0  # every node covered

    def test_half_radius_multiplicity_one(self, disc_field):
        net = build_net(disc_field, 0.5)
        assert multiplicity(net, 0.25) == 1

    def test_multiplicity_beyond_table_rejected(self, disc_field):
        net = build_net(disc_field, 0.5)
        with pytest.raises(GeometryError, match="multiplicity radius"):
            multiplicity(net, 2.5 * 0.5)

    def test_deterministic(self, disc_field):
        a = build_net(disc_field, 0.8)
        b = build_net(disc_field, 0.8)
        assert np.array_equal(a.centers, b.centers)

    @pytest.mark.parametrize("r", [0.0, -0.5, math.nan],
                             ids=["zero", "negative", "nan"])
    def test_nonpositive_radius_rejected(self, disc_field, r):
        with pytest.raises(GeometryError, match="net radius"):
            build_net(disc_field, r)


def _dense_distances(net):
    """The former Net.center_distances(): (n_centers, n_nodes) graph
    distances, one full row per center.  The field keeps no rows, so
    they are searched once per net and kept, read-only, on the net
    (directed, as test_node_search_matches_undirected allows)."""
    if not hasattr(net, "_dense_rows"):
        net._dense_rows = dijkstra(net.field.graph, directed=True,
                                   indices=net.centers)
        net._dense_rows.flags.writeable = False
    return net._dense_rows


def _evaluate_reference(part, points):
    """The former dense Partition.evaluate, zeros outside every support,
    with its own kNN query and segment lengths; a point on a node (its
    nearest segment of length 0) reads that node's distance rows."""
    field = part.net.field
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    k = min(field.k, len(field.grid))
    _, idx = field._tree.query(_realify(pts), k=k)
    idx = idx.reshape(len(pts), -1)
    lengths = field.segment_length(
        np.repeat(pts, idx.shape[1], axis=0),
        field.grid.nodes[idx.ravel()]).reshape(idx.shape)
    dists = _dense_distances(part.net)
    on = lengths[:, 0] < 1e-13
    chi = np.empty((len(part.net), len(pts)))
    for m in range(len(part.net)):
        dist = np.min(dists[m][idx] + lengths, axis=1)
        dist[on] = dists[m][idx[on, 0]]
        chi[m] = _ramp(dist, part.r_inner, part.r_outer)
    total = np.sum(chi, axis=0)
    return chi / np.where(total > 0.0, total, 1.0)


@pytest.fixture(scope="module")
def disc_partition(disc_field):
    return partition_of_unity(build_net(disc_field, 0.5))


class TestPartition:
    def test_sums_to_one_on_nodes(self, disc_partition):
        total = disc_partition.values.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_nonnegative_and_supported(self, disc_partition):
        part = disc_partition
        assert np.min(part.values.toarray()) >= 0.0
        dists = _dense_distances(part.net)
        assert np.all(part.values.toarray()[dists >= part.r_outer] == 0.0)
        assert (part.r_inner, part.r_outer) == (0.5, 1.0)

    def test_evaluate_matches_nodes(self, disc_field, disc_partition):
        vals = disc_partition.evaluate(disc_field.grid.nodes)
        assert np.array_equal(vals.toarray(),
                              disc_partition.values.toarray())

    def test_evaluate_matches_reference(self, disc_field, disc_partition):
        nodes = disc_field.grid.nodes[::97]
        nodes = nodes[np.abs(nodes[:, 0]) < 0.9]
        h = 0.25 * disc_field.grid.resolution
        for pts in (nodes, nodes + h, nodes - 1j * h):
            assert np.array_equal(
                disc_partition.evaluate(pts).toarray(),
                _evaluate_reference(disc_partition, pts))


@pytest.fixture(scope="module", params=[None] + sorted(_SMALL),
                ids=lambda p: f"{p}-small" if p else "disc")
def nets(request, disc_field):
    """Nets of radius 0.5 and 0.8 on the default disc field and on each
    coarse field."""
    field = _small(request.param) if request.param else disc_field
    return [build_net(field, r) for r in (0.5, 0.8)]


class TestNearTable:
    """The sparse center table against the dense rows it replaces."""

    def test_holds_the_dense_rows_below_twice_the_radius(self, nets):
        for net in nets:
            dense = _dense_distances(net)
            kept = dense < 2.0 * net.separation
            table = net.near.tocoo()
            assert table.nnz == np.count_nonzero(kept)
            full = np.full(dense.shape, np.inf)
            full[table.row, table.col] = table.data
            assert np.array_equal(full, np.where(kept, dense, np.inf))
            assert np.all(full[np.arange(len(net)), net.centers] == 0.0)

    def test_multiplicity(self, nets):
        for net in nets:
            dense = _dense_distances(net)
            for s in (0.0, 0.5, 1.0, 2.0):
                R = s * net.separation
                assert multiplicity(net, R) \
                    == int(np.max(np.sum(dense < R, axis=0)))

    def test_separation_audit(self, nets):
        for net in nets:
            pair = _dense_distances(net)[:, net.centers]
            np.fill_diagonal(pair, np.inf)
            ref = float(np.min(pair))
            assert separation_audit(net) \
                == (ref if ref < 2.0 * net.separation else math.inf)

    def test_covering_audit(self, nets):
        for net in nets:
            dense = _dense_distances(net)
            assert covering_audit(net) \
                == float(np.mean(np.min(dense, axis=0) < net.separation))

    def test_partition_values(self, nets):
        for net in nets:
            r = net.separation
            chi = _ramp(_dense_distances(net), r, 2.0 * r)
            values = partition_of_unity(net).values
            assert np.array_equal(values.toarray(),
                                  chi / np.sum(chi, axis=0))
            assert np.array_equal(values.toarray(),
                                  dense_partition_values(net))
            assert_no_stored_zeros(values)

    def test_evaluate_off_grid(self, nets):
        for net in nets:
            part = partition_of_unity(net)
            field = net.field
            nodes = field.grid.nodes[::7]
            h = 0.25 * field.grid.resolution
            for pts in (nodes + h, nodes - 1j * h):
                pts = pts[dom.contains(field.domain, pts)]
                assert len(pts)
                vals = part.evaluate(pts)
                assert_no_stored_zeros(vals)
                assert np.array_equal(vals.toarray(),
                                      _evaluate_reference(part, pts))
                assert np.array_equal(vals.toarray(),
                                      dense_evaluate(part, pts))

    def test_evaluate_outside_every_support(self, nets):
        """Points beyond every cutoff get an empty column; the others a
        column that sums to 1."""
        net = nets[0]
        part = partition_of_unity(net)
        far = net.near.copy()
        far.data[:] = part.r_outer  # every center at the rim of its ball
        rim = Partition(net=Net(net.separation, net.centers, far, net.field),
                        r_inner=part.r_inner, r_outer=part.r_outer,
                        values=part.values)
        pts = net.field.grid.nodes[:5]
        assert rim.evaluate(pts).nnz == 0
        total = np.asarray(part.evaluate(pts).sum(axis=0)).ravel()
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestCharts:
    def test_roundtrip(self, disc_domain):
        cm = chart(disc_domain, np.array([0.3 + 0.2j]))
        w = np.array([[0.1 - 0.3j]])
        back = cm.inverse(cm.forward(w))
        assert np.max(np.abs(back - w)) < 1e-12

    def test_center_maps_to_zero(self, disc_domain):
        zeta = np.array([0.4 - 0.1j])
        cm = chart(disc_domain, zeta)
        assert np.max(np.abs(cm.forward(np.zeros((1, 1), dtype=complex))
                             - zeta)) < 1e-12

    def test_holomorphy_residual(self, ball2_domain):
        cm = chart(ball2_domain, np.array([0.3, 0.1j]))
        assert cm.cauchy_riemann_residual() < 1e-8

    def test_beta_at_origin_disc(self, disc_domain, disc_engine):
        zeta = np.array([0.5 + 0.0j])
        cm = chart(disc_domain, zeta)
        z0 = np.zeros((1, 1), dtype=complex)
        val = beta(cm, disc_engine, z0, z0)
        # B(zeta,zeta)|det Phi'(0)|^2 = (rho(1-|zeta|^2))^2 B = rho^2/pi
        assert val == pytest.approx(0.25 / math.pi)

    def test_det_jacobian_matches_fd(self, ball2_domain):
        cm = chart(ball2_domain, np.array([0.2, 0.3j]))
        w = np.array([[0.05, -0.1j]])
        h = 1e-6
        d = 2
        J = np.empty((d, d), dtype=complex)
        for j in range(d):
            step = np.zeros((1, d), dtype=complex)
            step[0, j] = h
            J[:, j] = (cm.forward(w + step) - cm.forward(w - step))[0] \
                / (2 * h)
        assert cm.det_jacobian(w)[0] == pytest.approx(
            np.linalg.det(J), rel=1e-5)

    @pytest.mark.parametrize("domain,center", [
        (dom.disc(), [0.4 - 0.3j]),
        (dom.ball(2), [0.3 + 0.1j, -0.4j]),
        (dom.polydisc(2), [0.5j, -0.3 + 0.2j]),
    ], ids=["disc", "ball2", "polydisc2"])
    def test_dlog_absdet_matches_fd(self, domain, center):
        """Closed form against central differences of log|det Phi'|,
        whose holomorphic derivative is (d/dx - i d/dy) / 2."""
        cm = chart(domain, np.array(center))
        d = domain.dim
        w = np.array([[0.3 - 0.2j, 0.1 + 0.25j][:d],
                      [-0.15j, 0.4][:d]])
        h = 1e-6
        grad = np.empty_like(w)
        for j in range(d):
            step = np.zeros(d, dtype=complex)
            step[j] = h
            def diff(s):
                return (np.log(np.abs(cm.det_jacobian(w + s)))
                        - np.log(np.abs(cm.det_jacobian(w - s)))) / (2 * h)
            grad[:, j] = 0.5 * (diff(step) - 1j * diff(1j * step))
        fd = np.sqrt(np.sum(np.abs(grad) ** 2, axis=1))
        assert np.all(fd > 0.1)
        assert cm.dlog_absdet(w) == pytest.approx(fd, rel=1e-7)
