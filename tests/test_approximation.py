import math

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from bergmanlab import approximation
from bergmanlab import domains as dom
from bergmanlab import geometry, harness
from bergmanlab.approximation import (ApproximationError, boundary_scan,
                                      decompose, omega, ray_point,
                                      variety_test)
from bergmanlab.approximation import AUDIT_PAIRS, MIN_NODE_FACTOR
from bergmanlab.geometry import (GeodesicField, GeometryError, build_net,
                                 metric_ball, partition_of_unity)
from bergmanlab.kernels import engine_for, multi_indices
from bergmanlab.operators import SymbolFn

from conftest import (RHO, assert_no_stored_zeros, dense_partition_values,
                      lattice_neighbours, zbar1)

# closed-form value of the dV-weighted distance from conj(z) to
# holomorphic functions on the unit-radius metric ball at 0
U0 = RHO ** 2
OMEGA_ORACLE = 2.0 * math.pi * (1.0 / (1.0 - U0) - 1.0 + math.log(1.0 - U0))


@pytest.fixture(scope="module")
def unit_ball_dense(disc_field_dense):
    return metric_ball(disc_field_dense, np.array([0.0j]), 1.0)


class TestOmega:
    def test_holomorphic_polynomial_is_exact(self, disc_field_dense,
                                             unit_ball_dense):
        sym = SymbolFn(fn=lambda z: 2.0 * np.atleast_2d(z)[:, 0] ** 3
                       - 0.5, label="2z^3-1/2")
        val = omega(disc_field_dense, unit_ball_dense, sym, 6)
        assert val.value <= 1e-10

    def test_disc_zbar_closed_form(self, disc_field_dense,
                                   unit_ball_dense):
        val = omega(disc_field_dense, unit_ball_dense, zbar1(1), 6)
        assert val.value == pytest.approx(OMEGA_ORACLE, rel=0.02)

    def test_nonincreasing_in_degree(self, disc_field_dense,
                                     unit_ball_dense):
        vals = [omega(disc_field_dense, unit_ball_dense, zbar1(1), D).value
                for D in (0, 2, 4, 6)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12

    def test_nondecreasing_in_radius(self, disc_field_dense):
        sym = zbar1(1)
        vals = []
        for r in (0.5, 1.0, 1.5):
            ball = metric_ball(disc_field_dense, np.array([0.0j]), r)
            vals.append(omega(disc_field_dense, ball, sym, 6).value)
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12

    def test_mode_bracket_on_disc(self, disc_field_dense,
                                  unit_ball_dense):
        a = omega(disc_field_dense, unit_ball_dense, zbar1(1), 6,
                  mode="bergman-volume").value
        b = omega(disc_field_dense, unit_ball_dense, zbar1(1), 6,
                  mode="li-normalized").value
        assert 0.05 < a / b < 20.0

    def test_unknown_mode_rejected(self, disc_field_dense,
                                   unit_ball_dense):
        with pytest.raises(ApproximationError):
            omega(disc_field_dense, unit_ball_dense, zbar1(1), 6,
                  mode="nope")

    def test_moebius_rate_bracket(self, disc_field_dense):
        rates = []
        for a in (0.5, 0.7, 0.9, 0.95):
            ball = metric_ball(disc_field_dense, np.array([a + 0.0j]), 1.0)
            val = omega(disc_field_dense, ball, zbar1(1), 2)
            rates.append(val.value / (1.0 - a * a) ** 2)
        assert max(rates) / min(rates) < 3.0


class TestBoundaryScan:
    def test_disc_zbar_decays(self, disc_field):
        scan = boundary_scan(disc_field, zbar1(1), radius=1.0, degree=4,
                             n_rays=2, steps=(0.3, 0.5, 0.7, 0.85, 0.92))
        assert scan.decaying
        assert scan.tail_trend < 0.2

    def test_compact_support_vanishes_near_boundary(self, disc_field):
        def fn(z):
            z = np.atleast_2d(z)
            return np.where(np.abs(z[:, 0]) < 0.3, 1.0 + 0.0j, 0.0j)
        sym = SymbolFn(fn=fn, label="indicator")
        scan = boundary_scan(disc_field, sym, radius=1.0, degree=2,
                             n_rays=2, steps=(0.85, 0.92))
        assert scan.sup <= 1e-12

    def test_bidisc_zbar2_does_not_decay(self, bidisc_field):
        sym = SymbolFn(fn=lambda z: np.conj(np.atleast_2d(z)[:, 1]),
                       label="conj(z2)")
        # rays toward the interior of the face {|z1| = 1}
        dirs = np.array([[1.0, 0.0j], [1j, 0.0]])
        scan = boundary_scan(bidisc_field, sym, radius=1.0, degree=4,
                             directions=dirs,
                             steps=(0.3, 0.5, 0.7, 0.8))
        assert scan.tail_trend > 0.8

    def test_empty_ball_marks_row_inadmissible(self, disc_field,
                                               monkeypatch):
        # the scan's balls come from one batched distance search
        def empty(pts, limit=np.inf):
            return [np.full(len(disc_field.grid), np.inf) for _ in pts]
        monkeypatch.setattr(disc_field, "distances_from_point", empty)
        with pytest.raises(ApproximationError,
                           match="no admissible scan points"):
            boundary_scan(disc_field, zbar1(1), degree=2, n_rays=1,
                          steps=(0.3,))

    def test_other_errors_propagate(self, disc_field, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken distance path")
        monkeypatch.setattr(disc_field, "distances_from_point", broken)
        with pytest.raises(ValueError, match="broken distance path"):
            boundary_scan(disc_field, zbar1(1), degree=2, n_rays=1,
                          steps=(0.3,))

    def test_only_empty_rows_are_inadmissible(self, disc_field):
        # at t = 0.999 the nearest node is farther than 0.5 in the metric
        steps = (0.3, 0.999)
        scan = boundary_scan(disc_field, zbar1(1), radius=0.5, degree=0,
                             n_rays=2, steps=steps)
        assert [r.t for r in scan.rows] == list(steps) * 2
        for row in scan.rows:
            if row.t == 0.999:
                with pytest.raises(GeometryError,
                                   match="contains no grid nodes"):
                    metric_ball(disc_field, row.zeta, 0.5)
                assert not row.admissible and row.n_nodes == 0
                assert math.isnan(row.value)
            else:
                ball = metric_ball(disc_field, row.zeta, 0.5)
                ov = omega(disc_field, ball, zbar1(1), 0)
                assert row.admissible and ov.admissible
                assert row.n_nodes == len(ball) == ov.n_nodes
                assert row.value == ov.value
        assert scan.n_admissible == 2

    def test_thin_rows_are_inadmissible(self, disc_field):
        # a degree with just enough unknowns for the ball at t = 0.3
        steps = (0.3, 0.9)
        u = np.array([1.0 + 0.0j])
        sizes = [len(metric_ball(disc_field, ray_point(disc_field.domain,
                                                       u, t), 1.0))
                 for t in steps]
        degree = sizes[0] // MIN_NODE_FACTOR - 1
        assert sizes[1] < MIN_NODE_FACTOR * (degree + 1) <= sizes[0]
        scan = boundary_scan(disc_field, zbar1(1), radius=1.0,
                             degree=degree, directions=u[None],
                             steps=steps)
        thin = scan.rows[1]
        ov = omega(disc_field, metric_ball(disc_field, thin.zeta, 1.0),
                   zbar1(1), degree)
        assert not thin.admissible and not ov.admissible
        assert thin.n_nodes == ov.n_nodes == sizes[1] > 0
        assert thin.value == ov.value
        assert scan.rows[0].admissible and scan.n_admissible == 1

    def test_zero_omega_reads_no_trend(self, disc_field):
        # a holomorphic symbol: omega is zero up to rounding on every row
        sym = SymbolFn(fn=lambda z: np.atleast_2d(z)[:, 0] ** 2,
                       label="z1*z1")
        scan = boundary_scan(disc_field, sym, radius=1.0, degree=4,
                             n_rays=2, steps=(0.3, 0.5, 0.7, 0.85))
        assert scan.sup < 1e-10
        assert scan.tail_trend == 0.0 and scan.decaying

    def test_searches_within_the_budget(self, disc_field, monkeypatch):
        kwargs = dict(radius=1.0, degree=2, n_rays=3, steps=(0.3, 0.5, 0.7))
        whole = boundary_scan(disc_field, zbar1(1), **kwargs)
        n = len(disc_field.grid)
        budget = 2 * n  # two sources a call
        sources = []
        def counted(graph, *args, indices, **kw):
            sources.append(np.size(indices))
            return dijkstra(graph, *args, indices=indices, **kw)
        monkeypatch.setattr(geometry, "_SEARCH_BUDGET", budget)
        monkeypatch.setattr(geometry, "dijkstra", counted)
        split = boundary_scan(disc_field, zbar1(1), **kwargs)
        assert sources == [2, 2, 2, 2, 1]
        assert max(sources) * n <= budget
        for a, b in zip(whole.rows, split.rows):
            assert (a.ray, a.t, a.admissible, a.n_nodes) \
                == (b.ray, b.t, b.admissible, b.n_nodes)
            assert np.array_equal(a.zeta, b.zeta)
            assert np.array_equal(a.value, b.value, equal_nan=True)
        assert len(whole.rows) == len(split.rows) == 9

    def test_batched_ray_points_equal_the_scalar_bisection(self):
        def loop(domain, u, t):  # one ray, scalar bisection
            a = domain.anchor_point
            lo, hi = 0.0, 2.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if dom.contains(domain, a + mid * u):
                    lo = mid
                else:
                    hi = mid
            return a + t * lo * u
        ts = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
        for name, (domain, _) in sorted(harness._DOMAINS.items()):
            dirs = approximation.ray_directions(domain, len(ts), seed=3)
            ref = np.array([loop(domain, u, t) for u, t in zip(dirs, ts)])
            assert np.array_equal(ray_point(domain, dirs, ts), ref), name
            assert np.array_equal(
                ray_point(domain, dirs, 0.5),
                np.array([loop(domain, u, 0.5) for u in dirs])), name
            assert np.array_equal(ray_point(domain, dirs[2], ts[2]),
                                  ref[2]), name

    def test_ray_points_stay_inside(self, disc_domain):
        for t in (0.1, 0.5, 0.9, 0.99):
            p = ray_point(disc_domain, np.array([1.0 + 0.0j]), t)
            assert dom.contains(disc_domain, p[None, :])
            assert abs(p[0]) == pytest.approx(t, abs=1e-9)


@pytest.fixture(scope="module")
def dec(disc_field):
    return decompose(partition_of_unity(build_net(disc_field, 0.5)),
                     zbar1(1), degree=6)


class TestDecomposition:

    def test_identity_on_nodes(self, dec):
        assert dec.identity_error() < 1e-12

    def test_pairwise_inequality_all_pairs(self, dec):
        assert len(dec.pair_audit) > 0
        assert all(a["holds"] for a in dec.pair_audit)

    def test_audited_pairs_match_loop_reference(self, dec):
        """The former O(centers^2) enumeration of overlapping supports,
        with the median common node as witness and the same draw."""
        chi = dec.partition.values.toarray()
        pairs = []
        for n in range(len(chi)):
            supp_n = chi[n] > 0
            for m in range(n + 1, len(chi)):
                witness = np.nonzero(supp_n & (chi[m] > 0))[0]
                if len(witness):
                    pairs.append((n, m, int(witness[len(witness) // 2])))
        assert len(pairs) > 40
        keep = np.random.default_rng(0).choice(len(pairs), 40, replace=False)
        assert [(*a["pair"], a["witness"]) for a in dec.pair_audit] \
            == [pairs[i] for i in sorted(keep)]

    def test_epsilon_shell_decay(self, dec):
        assert dec.shell_epsilon_decay() >= 5.0

    def test_phi2_bracket_shape(self, dec):
        assert max(a["ratio"] for a in dec.phi2_audit) <= 1.5

    def test_dbar_bracket_shape(self, dec):
        assert max(a["ratio"] for a in dec.dbar_audit) <= 1.5

    def test_never_evaluates_off_the_grid(self, dec, monkeypatch):
        """The audits read the partition at the nodes only: the dbar
        audit differences phi_1 itself on the lattice."""
        def off_grid(self, points):
            raise AssertionError("Partition.evaluate called")
        monkeypatch.setattr(geometry.Partition, "evaluate", off_grid)
        again = decompose(dec.partition, zbar1(1), degree=6)
        assert again.dbar_audit == dec.dbar_audit

    def test_holomorphic_symbol_trivial(self, dec):
        sym = SymbolFn(fn=lambda z: np.atleast_2d(z)[:, 0] ** 2,
                       label="z^2")
        d = decompose(dec.partition, sym, degree=6)
        assert float(np.max(d.epsilon)) < 1e-10
        assert float(np.max(np.abs(d.phi2))) < 1e-10
        # every eps^2 bound is rounding noise, so every ratio reads 0,
        # and a shell decay of noise over noise reads NaN
        assert max(a["ratio"] for a in d.phi2_audit) == 0.0
        assert max(a["ratio"] for a in d.dbar_audit) == 0.0
        assert math.isnan(d.shell_epsilon_decay())

    @pytest.mark.parametrize("scale", [1e-6, 1e-12])
    def test_brackets_do_not_depend_on_the_symbol_scale(self, dec, scale):
        """The rounding floor is relative to the symbol: a multiple of
        conj(z1) reads the brackets of conj(z1)."""
        sym = SymbolFn(fn=lambda z: scale * np.conj(np.atleast_2d(z)[:, 0]),
                       label=f"{scale}*conj(z1)")
        small = decompose(dec.partition, sym, degree=6)
        for name in ("phi2_audit", "dbar_audit"):
            ref, got = getattr(dec, name), getattr(small, name)
            assert [a["admissible"] for a in got] \
                == [a["admissible"] for a in ref]
            bracket = max(a["ratio"] for a in ref)
            assert bracket > 0
            assert max(a["ratio"] for a in got) \
                == pytest.approx(bracket, rel=1e-9)
        assert small.shell_epsilon_decay() \
            == pytest.approx(dec.shell_epsilon_decay(), rel=1e-9)


class TestVarietyTest:
    def _face_disc(self, theta=0.7):
        return lambda w: np.array([np.exp(1j * theta), w])

    def test_conj_z1_constant_along_disc(self, bidisc_domain):
        sym = SymbolFn(fn=lambda z: np.conj(np.atleast_2d(z)[:, 0]),
                       label="conj(z1)")
        assert variety_test(sym, bidisc_domain, self._face_disc()) \
            <= 1e-10

    def test_conj_z2_residual_one(self, bidisc_domain):
        sym = SymbolFn(fn=lambda z: np.conj(np.atleast_2d(z)[:, 1]),
                       label="conj(z2)")
        res = variety_test(sym, bidisc_domain, self._face_disc())
        assert res == pytest.approx(1.0, abs=1e-3)

    def test_holomorphic_composition_residual_zero(self, bidisc_domain):
        sym = SymbolFn(fn=lambda z: np.atleast_2d(z)[:, 1] ** 2,
                       label="z2^2")
        assert variety_test(sym, bidisc_domain, self._face_disc()) <= 1e-9

    def test_interior_disc_rejected(self, bidisc_domain):
        sym = SymbolFn(fn=lambda z: np.conj(np.atleast_2d(z)[:, 1]),
                       label="conj(z2)")
        inner = lambda w: np.array([0.5, w])
        with pytest.raises(ApproximationError):
            variety_test(sym, bidisc_domain, inner)


# -- the dense decomposition, kept as the reference for the CSR one ----


def _dense_decompose(partition, symbol, degree, seed=0):
    """The former decompose on dense (n_centers, n_nodes) cutoffs: the
    glue over the positive entries of each row, pairs from S S^T with S
    the dense supports, and the dbar audit on lattice differences of
    phi1 found by a dict of rounded lattice coordinates (see
    lattice_neighbours).  Returns phi1, epsilon and the audits."""
    from scipy.sparse import csr_matrix, triu
    net = partition.net
    field = net.field
    grid = field.grid
    r2 = 0.5 * net.separation
    n_unknowns = len(multi_indices(field.domain.dim, degree))
    eps = np.empty(len(net))
    admissible = np.zeros(len(net), dtype=bool)
    approximants = []
    for m, c in enumerate(net.center_points()):
        ball = metric_ball(field, c, partition.r_outer + r2)
        ov = omega(field, ball, symbol, degree)
        eps[m] = math.sqrt(max(ov.value, 0.0))
        admissible[m] = len(ball) >= MIN_NODE_FACTOR * n_unknowns
        approximants.append(ov)
    chi = dense_partition_values(net)
    phi1 = np.zeros(len(grid), dtype=complex)
    for m, ov in enumerate(approximants):
        sel = chi[m] > 0
        phi1[sel] += chi[m][sel] * ov.approximant(grid.nodes[sel])
    phi = symbol(grid.nodes)
    phi2 = phi - phi1
    # a bound at most (1e-10 max |phi|)^2 is zero up to rounding
    floor = (1e-10 * np.max(np.abs(phi))) ** 2

    def local_audits(values_sq):
        audits = []
        for m, c in enumerate(net.center_points()):
            sel = metric_ball(field, c, r2).members
            mass = approximation._ball_integral(field, sel, values_sq[sel])
            local = np.nonzero(chi[:, net.centers[m]] > 0)[0]
            bound = float(np.max(eps[local]) ** 2)
            ok = bool(np.all(admissible[local]))
            audits.append(
                {"center": m, "mass": mass, "eps_sq": bound,
                 "admissible": ok,
                 "ratio": mass / bound if (ok and bound > floor) else 0.0})
        return audits

    rng = np.random.default_rng(seed)
    supp = chi > 0
    S = csr_matrix(supp, dtype=np.int32)
    rows, cols = triu(S @ S.T, k=1).nonzero()
    order = np.lexsort((cols, rows))
    pairs = list(zip(rows[order].tolist(), cols[order].tolist()))
    if len(pairs) > AUDIT_PAIRS:
        pairs = [pairs[i] for i in
                 sorted(rng.choice(len(pairs), AUDIT_PAIRS, replace=False))]
    pair_audit = []
    for n, m in pairs:
        witness = np.nonzero(supp[n] & supp[m])[0]
        node = int(witness[len(witness) // 2])
        def gap_sq(sel, a=approximants[n], b=approximants[m]):
            return np.abs(a.approximant(grid.nodes[sel])
                          - b.approximant(grid.nodes[sel])) ** 2
        sel = metric_ball(field, grid.nodes[node], r2).members
        lhs = math.sqrt(approximation._ball_integral(field, sel, gap_sq(sel)))
        rhs = eps[n] + eps[m]
        pair_audit.append(
            {"pair": (n, m), "witness": node, "lhs": lhs, "rhs": rhs,
             "holds": bool(lhs <= rhs * (1.0 + 1e-9) + 1e-12)})
    # dbar phi_1 from phi_1 on the lattice: central where a node has
    # both neighbours on an axis, one-sided where it has one
    d = field.domain.dim
    h = 2.0 / math.ceil(2.0 / grid.resolution)
    dphi1 = np.zeros((len(grid), d), dtype=complex)
    up, down = lattice_neighbours(grid)
    for i, k in np.ndindex(up.shape):
        a, b = (i if v < 0 else v for v in (up[i, k], down[i, k]))
        steps = int(a != i) + int(b != i)
        slope = (phi1[a] - phi1[b]) / (h * steps) if steps \
            else complex("nan")
        dphi1[i, k % d] += 0.5 * slope if k < d else 0.5j * slope
    ginv = np.linalg.inv(field.engine.metric_batch(grid.nodes))
    norm_sq = np.einsum("nj,njk,nk->n", dphi1.conj(), ginv, dphi1).real
    norm_sq[np.isnan(norm_sq)] = 0.0  # a node with no neighbour on an axis
    return {"phi1": phi1, "epsilon": eps, "pair_audit": pair_audit,
            "phi2_audit": local_audits(np.abs(phi2) ** 2),
            "dbar_audit": local_audits(np.maximum(norm_sq, 0.0))}


def _coarse_field(domain, resolution, degree=None):
    grid = dom.build_grid(domain, resolution)
    engine = engine_for(domain) if degree is None \
        else engine_for(domain, grid, degree=degree)
    return GeodesicField(engine, grid)


# (field, net radius, approximation degree)
_REFERENCE_CASES = {
    "disc": (None, 0.5, 6),
    "polydisc2": (lambda: _coarse_field(dom.polydisc(2), 0.25), 0.8, 4),
    "egg2": (lambda: _coarse_field(dom.egg(2), 0.25, degree=6), 0.5, 4),
    # 7 cells per axis: some nodes have no lattice neighbour on an axis
    "ball2": (lambda: _coarse_field(dom.ball(2), 0.3), 0.8, 2)}


@pytest.fixture(scope="module", params=sorted(_REFERENCE_CASES))
def dense_pair(request, disc_field):
    """A decomposition of conj(z1) and its dense reference."""
    make, r, degree = _REFERENCE_CASES[request.param]
    field = make() if make else disc_field
    part = partition_of_unity(build_net(field, r))
    sym = zbar1(field.domain.dim)
    return (decompose(part, sym, degree=degree),
            _dense_decompose(part, sym, degree))


class TestDenseReference:
    """The CSR partition path against the dense one it replaced."""

    def test_phi1_and_epsilon(self, dense_pair):
        dec, ref = dense_pair
        assert np.array_equal(dec.phi1, ref["phi1"])
        assert np.array_equal(dec.epsilon, ref["epsilon"])

    def test_audits(self, dense_pair):
        dec, ref = dense_pair
        assert len(dec.pair_audit) == AUDIT_PAIRS
        assert dec.pair_audit == ref["pair_audit"]
        assert dec.phi2_audit == ref["phi2_audit"]
        assert dec.dbar_audit == ref["dbar_audit"]

    def test_values_have_no_stored_zeros(self, dense_pair):
        assert_no_stored_zeros(dense_pair[0].partition.values)

    def test_net_matches_unbounded_searches(self, dense_pair):
        net = dense_pair[0].partition.net
        centers, indptr, indices, data = _unbounded_net(net.field,
                                                        net.separation)
        assert np.array_equal(net.centers, centers)
        assert np.array_equal(net.near.indptr, indptr)
        assert np.array_equal(net.near.indices, indices)
        assert net.near.data.tobytes() == data.tobytes()

    def test_phi2_masses_match_metric_balls(self, dense_pair):
        dec = dense_pair[0]
        net = dec.partition.net
        phi2_sq = np.abs(dec.phi2) ** 2
        for audit, c in zip(dec.phi2_audit, net.center_points()):
            sel = metric_ball(net.field, c, dec.r_small).members
            assert audit["mass"] == approximation._ball_integral(
                net.field, sel, phi2_sq[sel])


def _unbounded_net(field, r):
    """build_net from full Dijkstra rows: the greedy farthest-first
    centres and, per centre, the node indices and distances below 2r, as
    CSR indptr, indices and data."""
    centers = [field.nearest_node(field.domain.anchor_point)]
    cols, vals, dmin = [], [], np.inf
    while True:
        row = dijkstra(field.graph, directed=False, indices=centers[-1])
        cols.append(np.nonzero(row < 2.0 * r)[0])
        vals.append(row[cols[-1]])
        dmin = np.minimum(dmin, row)
        if np.max(dmin) < r:
            break
        centers.append(int(np.argmax(dmin)))
    return (np.array(centers), np.cumsum([0] + [len(c) for c in cols]),
            np.concatenate(cols), np.concatenate(vals))
