import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta

from bergmanlab import domains as dom
from bergmanlab.kernels import multi_indices


class TestMembership:
    def test_disc_contains_origin_and_rejects_boundary(self, disc_domain):
        assert dom.contains(disc_domain, np.array([0.0 + 0.0j]))
        assert not dom.contains(disc_domain, np.array([1.0 + 0.0j]))
        assert not dom.contains(disc_domain, np.array([0.8 + 0.7j]))

    def test_ball_membership_is_euclidean(self, ball2_domain):
        assert dom.contains(ball2_domain, np.array([0.5, 0.5j]))
        assert not dom.contains(ball2_domain, np.array([0.8, 0.7j]))

    def test_egg_membership(self):
        egg = dom.egg(2)
        assert dom.contains(egg, np.array([0.0, 0.0]))
        # |z1|^2 + |z2|^4 = 0.25 + 0.81 > 1
        assert not dom.contains(egg, np.array([0.5, 0.9486833j]))

    @given(x=st.floats(-0.999, 0.999), y=st.floats(-0.999, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_disc_membership_matches_modulus(self, x, y):
        inside = dom.contains(dom.disc(), np.array([x + 1j * y]))
        assert bool(inside) == (x * x + y * y < 1.0)

    def test_boundary_gap_exact_on_disc(self, disc_domain):
        z = np.array([[0.3 + 0.4j]])
        gap = dom.boundary_gap(disc_domain, z)
        assert gap == pytest.approx(0.5, abs=1e-12)

    def test_boundary_gap_polydisc_is_worst_factor(self, bidisc_domain):
        z = np.array([[0.9, 0.2j]])
        assert dom.boundary_gap(bidisc_domain, z) == pytest.approx(0.1)

    def test_boundary_gap_is_a_lower_bound_on_egg(self):
        egg = dom.egg(2)
        rng = np.random.default_rng(7)
        pts = 0.6 * (rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2)))
        keep = dom.contains(egg, pts)
        pts = pts[keep]
        gaps = dom.boundary_gap(egg, pts)
        for p, g in zip(pts, gaps):
            # step almost the whole gap toward the boundary: still inside
            direction = p / max(np.linalg.norm(p), 1e-12)
            assert dom.contains(egg, (p + 0.95 * g * direction)[None, :])


class TestCentralDbar:
    """The shared stencil against exact conjugate derivatives."""

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(7)
        return 0.5 * (rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2)))

    @staticmethod
    def _f(w):  # (conj(z2)^2, z1 |z2|^2) per point
        return np.stack([np.conj(w[:, 1]) ** 2,
                         w[:, 0] * np.abs(w[:, 1]) ** 2], axis=1)

    def test_scalar(self, batch):
        z1, z2 = batch.T
        zero = np.zeros(len(batch))
        for k, exact in enumerate([(zero, 2.0 * np.conj(z2)),
                                   (zero, z1 * z2)]):
            got = dom.central_dbar(lambda w: self._f(w)[:, k], batch)
            assert got.shape == batch.shape
            np.testing.assert_allclose(got, np.stack(exact, axis=1),
                                       rtol=0, atol=1e-8)

    def test_vector_valued(self, batch):
        z1, z2 = batch.T
        zero = np.zeros(len(batch))
        # exact[n, j, k] = d f_k / d zbar_j
        exact = np.stack([np.stack([zero, zero], axis=1),
                          np.stack([2.0 * np.conj(z2), z1 * z2], axis=1)],
                         axis=1)
        got = dom.central_dbar(self._f, batch)
        assert got.shape == (len(batch), 2, 2)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-8)


class TestVolumes:
    def test_disc_area(self, disc_domain):
        assert dom.lebesgue_volume(disc_domain) == pytest.approx(math.pi)

    def test_bidisc_volume(self, bidisc_domain):
        assert dom.lebesgue_volume(bidisc_domain) == pytest.approx(
            math.pi ** 2)

    def test_ball_volume(self, ball2_domain):
        assert dom.lebesgue_volume(ball2_domain) == pytest.approx(
            math.pi ** 2 / 2.0)

    @pytest.mark.parametrize("m, expected", [
        (2, math.pi ** 2 * 2.0 / 3.0),
        (4, math.pi ** 2 * 4.0 / 5.0),
    ])
    def test_egg_volume(self, m, expected):
        assert dom.lebesgue_volume(dom.egg(m)) == pytest.approx(expected)


class TestGrids:
    def test_grid_mass_matches_area_disc(self, disc_domain, disc_grid):
        assert disc_grid.weights.sum() == pytest.approx(math.pi, rel=0.01)

    def test_grid_mass_matches_volume_bidisc(self, bidisc_domain,
                                             bidisc_grid):
        assert bidisc_grid.weights.sum() == pytest.approx(
            math.pi ** 2, rel=0.012)

    def test_grid_mass_matches_volume_ball(self, ball2_grid):
        assert ball2_grid.weights.sum() == pytest.approx(
            math.pi ** 2 / 2.0, rel=0.01)

    def test_nodes_strictly_inside(self, disc_domain, disc_grid):
        assert np.all(np.abs(disc_grid.nodes[:, 0]) < 1.0)

    def test_deterministic_rebuild(self, disc_domain):
        a = dom.build_grid(disc_domain, 0.1)
        b = dom.build_grid(disc_domain, 0.1)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("h, count", [(1e-200, "4.000e+400"),
                                          (0.000707, "8.003e+6")],
                             ids=["1e-200", "0.000707"])
    def test_midpoint_beyond_cap_raises(self, disc_domain, h, count):
        """ceil(2/h)^2 candidates on the disc: 0.000707 asks for 2829^2,
        just over the cap, and 1e-200 once overflowed numpy's size."""
        with pytest.raises(dom.DomainError) as exc:
            dom.build_grid(disc_domain, h)
        assert str(exc.value) == (f"tensor-midpoint resolution {h} asks "
                                  f"for {count} candidate nodes, above "
                                  f"the cap of 8000000")

    def test_product_polar_integrates_monomials_exactly(self, disc_domain):
        grid = dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                              degree=12)
        for k in range(0, 13, 3):
            val = np.sum(grid.weights * np.abs(grid.nodes[:, 0]) ** (2 * k))
            assert val == pytest.approx(math.pi / (k + 1), rel=1e-12)

    def test_nonpositive_resolution_raises(self, disc_domain):
        with pytest.raises(dom.DomainError):
            dom.build_grid(disc_domain, -0.1)

    @pytest.mark.parametrize("degree", [-1, -2, 2.5, 3.0, "4", True])
    def test_product_polar_degree_must_be_nonnegative_int(self, disc_domain,
                                                          degree):
        with pytest.raises(dom.DomainError, match="non-negative integer"):
            dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                           degree=degree)

    def test_midpoint_rejects_degree(self, disc_domain):
        with pytest.raises(dom.DomainError, match="product-polar"):
            dom.build_grid(disc_domain, 0.1, degree=4)

    @pytest.mark.parametrize("domain", [dom.disc(), dom.polydisc(2),
                                        dom.ball(2), dom.egg(3)],
                             ids=lambda d: d.label)
    def test_product_polar_torus_layout(self, domain):
        """Nodes run orbit by orbit, n_theta ** d to an orbit of one
        weight: each orbit's first node is its real moduli, and node t
        of the orbit (C order) is that times exp(2 pi i t / n_theta)."""
        grid = dom.build_grid(domain, 0.0, scheme="product-polar", degree=4)
        per_orbit = grid.n_theta ** domain.dim
        assert grid.n_theta == 11
        assert len(grid) % per_orbit == 0
        z = grid.nodes.reshape(-1, per_orbit, domain.dim)
        w = grid.weights.reshape(-1, per_orbit)
        assert np.array_equal(w, np.broadcast_to(w[:, :1], w.shape))
        first = z[:, 0]
        assert np.all(first.imag == 0.0) and np.all(first.real >= 0.0)
        t = np.indices((grid.n_theta,) * domain.dim).reshape(domain.dim, -1)
        phases = np.exp(2j * math.pi * t.T / grid.n_theta)
        np.testing.assert_allclose(z, first[:, None, :] * phases[None],
                                   rtol=0, atol=1e-15)

    def test_midpoint_has_no_layout(self, disc_grid):
        """A tensor-midpoint grid's orbits are single nodes, sorted by
        real parts first, then imaginary parts."""
        assert disc_grid.n_theta == 1
        z = disc_grid.nodes[:, 0]
        order = np.lexsort((z.imag, z.real))
        assert np.array_equal(order, np.arange(len(z)))

    @pytest.mark.parametrize("name", ["bidisc_grid", "ball2_grid"])
    def test_midpoint_nodes_in_lexicographic_order(self, request, name):
        """Nodes run in order of (Re z_1, ..., Re z_d, Im z_1, ..., Im z_d),
        which the grid checksum depends on."""
        z = request.getfixturevalue(name).nodes
        keys = np.concatenate([z.real, z.imag], axis=1)
        order = np.lexsort(keys.T[::-1])
        assert np.array_equal(order, np.arange(len(z)))

    @pytest.mark.parametrize("domain", [dom.ball(2), dom.egg(1)],
                             ids=lambda d: d.label)
    def test_midpoint_leaves_out_nodes_on_the_sphere(self, domain):
        """ball2 at 0.15 splits each axis in 14 cells; 588 candidates
        have |z|^2 = 1 exactly (odd numerators a with sum a^2 = 14^2),
        which float rounding used to keep.  egg(1) is the same ball."""
        grid = dom.build_grid(domain, 0.15)
        assert len(grid) == 11_376
        a = np.rint(np.concatenate([grid.nodes.real, grid.nodes.imag],
                                   axis=1) * 14).astype(int)
        assert np.all(np.sum(a ** 2, axis=1) < 14 ** 2)


def test_import_leaves_scipy_stats_out():
    """scipy.stats took most of the package's import time and memory."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bergmanlab; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestMonomialNorms:
    def test_disc_norms(self, disc_domain):
        for k in range(5):
            assert dom.monomial_norm2(disc_domain, (k,)) == pytest.approx(
                math.pi / (k + 1))

    def test_bidisc_norms_factorize(self, bidisc_domain):
        assert dom.monomial_norm2(bidisc_domain, (2, 3)) == pytest.approx(
            (math.pi / 3) * (math.pi / 4))

    def test_ball_norms(self, ball2_domain):
        # pi^d d! a! / (d (|a|+d)!) with d=2, a=(1,1)
        expected = math.pi ** 2 * 2 * 1 * 1 / (2 * math.factorial(4))
        assert dom.monomial_norm2(ball2_domain, (1, 1)) == pytest.approx(
            expected)

    @pytest.mark.parametrize("d", [2, 3])
    def test_ball_norms_exact_past_int64(self, d):
        # pi^d d! prod(a_j!) / (d (|a|+d)!) as an exact rational; from
        # |a| = 23 on, the product of the factorials leaves int64
        ball = dom.ball(d)
        for n in (23, 24, 30):
            for a in multi_indices(d, n):
                if a.sum() != n:
                    continue
                exact = Fraction(math.factorial(d) * math.prod(
                    math.factorial(int(k)) for k in a),
                    d * math.factorial(n + d))
                assert dom.monomial_norm2(ball, a) == pytest.approx(
                    math.pi ** d * float(exact), rel=1e-14), a

    @pytest.mark.parametrize("a", [(100, 69), (171, 0)])
    def test_ball_norms_past_float_factorials(self, a):
        # (|a| + d)! > 170! does not convert to a float; the exact
        # rational rounds once, then takes pi^d
        exact = Fraction(2 * math.prod(math.factorial(k) for k in a),
                         2 * math.factorial(sum(a) + 2))
        assert dom.monomial_norm2(dom.ball(2), a) \
            == math.pi ** 2 * float(exact)

    def test_ball_norms_below_the_float_limit_keep_their_bits(self):
        # (100, 68) is the last total degree on the float expression
        num = math.pi ** 2 * 2 * float(math.factorial(100)
                                       * math.factorial(68))
        assert dom.monomial_norm2(dom.ball(2), (100, 68)) \
            == num / (2 * math.factorial(170))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
    def test_egg_norms_exact(self, m):
        # B((b + 1) / m, a + 2) / m = (a + 1)! m^(a + 1)
        # / prod_{k <= a + 1} (b + 1 + k m), rounded once
        egg = dom.DomainSpec(kind="egg", dim=2, egg_exponent=m)
        for a in range(61):
            for b in range(61):
                radial = float(Fraction(
                    math.factorial(a + 1) * m ** (a + 1),
                    math.prod(b + 1 + k * m for k in range(a + 2))))
                got = dom.monomial_norm2(egg, (a, b))
                assert got == math.pi ** 2 / (a + 1.0) * radial, (a, b)
                assert got == pytest.approx(
                    math.pi ** 2 / (a + 1.0)
                    * beta((b + 1.0) / m, a + 2.0) / m, rel=3e-14), (a, b)

    def test_egg_norms_against_quadrature(self):
        egg = dom.egg(2)
        grid = dom.build_grid(egg, 0.0, scheme="product-polar", degree=10)
        for a in [(0, 0), (1, 0), (0, 1), (2, 1)]:
            num = np.sum(grid.weights
                         * np.abs(grid.nodes[:, 0]) ** (2 * a[0])
                         * np.abs(grid.nodes[:, 1]) ** (2 * a[1]))
            assert num == pytest.approx(dom.monomial_norm2(egg, a),
                                        rel=1e-10)
