import math

import numpy as np
import pytest

from bergmanlab import domains as dom
from bergmanlab.diagnostics import (DiagnosticsError, _bracket,
                                    admissible_nodes, off_diagonal_check,
                                    off_diagonal_ratio, sbg_check,
                                    sbg_values, t91_equivalences,
                                    volume_comparison_check,
                                    volume_equivalence_bracket)
from bergmanlab.geometry import GeodesicField, GeometryError, metric_ball
from bergmanlab.kernels import engine_for

from conftest import RHO


class TestOffDiagonal:
    def test_single_pair_oracle(self, disc_engine):
        ratio = off_diagonal_ratio(disc_engine, [0.6], [0.0])
        assert ratio == pytest.approx((1.0 - 0.36) ** 2)

    def test_diagonal_pair_is_one(self, ball2_engine):
        z = [0.3, 0.2j]
        assert off_diagonal_ratio(ball2_engine, z, z) == pytest.approx(1.0)

    def test_batch_is_per_point(self, ball2_engine, ball2_grid):
        z = ball2_grid.nodes[::41]
        zeta = np.array([0.3, -0.2j])
        ratio = off_diagonal_ratio(ball2_engine, z, zeta)
        assert ratio.shape == (len(z),)
        assert np.array_equal(
            ratio, [off_diagonal_ratio(ball2_engine, p, zeta) for p in z])

    def test_disc_scan_bracket(self, disc_engine, disc_field):
        centers = np.array([[0.0j], [0.3], [0.5 + 0.2j], [0.7j], [-0.6]])
        est = off_diagonal_check(disc_engine, disc_field, centers, r0=1.0)
        # Moebius reduction: ratio >= (1 - rho^2)^2 at distance <= 1
        assert est.detail["ratio_min"] >= (1.0 - RHO ** 2) ** 2 * 0.99
        assert est.detail["ratio_max"] <= 1.0 + 1e-9
        assert est.value < 3.0

    def test_pairs_are_metric_ball_members(self, disc_engine, disc_field):
        centers = np.array([[0.0j], [0.3], [0.5j]])
        est = off_diagonal_check(disc_engine, disc_field, centers, r0=1.0)
        n_members = sum(len(metric_ball(disc_field, c, 1.0).members)
                        for c in centers)
        assert est.sample == f"{n_members} pairs at distance < 1.0"

    def test_empty_ball_raises(self, disc_engine, disc_field, disc_grid):
        # a grid node is in its own ball; 0.3 is off the grid, and no node
        # lies within 1e-4 of it
        centers = np.array([disc_grid.nodes[100], [0.3]])
        with pytest.raises(GeometryError, match="contains no grid nodes"):
            off_diagonal_check(disc_engine, disc_field, centers, r0=1e-4)


class TestVolumeComparison:
    def test_disc_constant_two_pi(self, disc_engine, disc_grid):
        est = volume_comparison_check(disc_engine, disc_grid)
        assert est.detail["ratio_min"] == pytest.approx(2 * math.pi,
                                                        abs=1e-6)
        assert est.detail["ratio_max"] == pytest.approx(2 * math.pi,
                                                        abs=1e-6)

    def test_ball_constant_by_homogeneity(self, ball2_engine, ball2_grid):
        est = volume_comparison_check(ball2_engine, ball2_grid)
        assert est.detail["ratio_max"] == pytest.approx(
            est.detail["ratio_min"], rel=1e-8)

    def test_bidisc_constant(self, bidisc_engine, bidisc_grid):
        est = volume_comparison_check(bidisc_engine, bidisc_grid)
        assert est.detail["ratio_max"] == pytest.approx(4 * math.pi ** 2,
                                                        abs=1e-6)


class TestSBG:
    def test_disc_pointwise_value(self, disc_engine):
        val = sbg_values(disc_engine, np.array([[0.5 + 0.0j]]))[0]
        assert val == pytest.approx(0.5)

    def test_ball_pointwise_value(self, ball2_engine):
        z = np.array([[0.4, 0.3j]])
        val = sbg_values(ball2_engine, z)[0]
        assert val == pytest.approx(3.0 * 0.25)

    def test_disc_sup_bracket_fine_grid(self, disc_domain, disc_engine):
        grid = dom.build_grid(disc_domain, 0.004)
        est = sbg_check(disc_engine, grid)
        assert 1.8 <= est.value <= 2.0


def test_bracket_is_two_sided_and_may_be_infinite():
    assert _bracket(np.array([0.5, 3.0])) == (3.0, 0.5, 3.0)
    assert _bracket([0.25, 2.0]) == (4.0, 0.25, 2.0)
    with np.errstate(divide="ignore"):
        assert _bracket(np.array([0.0, 2.0])) == (math.inf, 0.0, 2.0)


def _ball_brackets(engine, field, centers, r):
    """The former conditions (2) and (3): B on the whole grid, read on
    each ball's members, and a running bracket per ball."""
    diag = engine.kernel_diag(field.grid.nodes).real
    c2, c3lo, c3hi = 0.0, math.inf, 0.0
    for zeta, ball in zip(centers, metric_ball(field, centers, r)):
        bz = engine.kernel_diag(zeta[None, :]).real[0]
        ratio2 = diag[ball.members] / bz
        c2 = max(c2, float(np.max(ratio2)), float(1.0 / np.min(ratio2)))
        prod = bz * ball.lebesgue_mass
        c3lo, c3hi = min(c3lo, prod), max(c3hi, prod)
    return c2, [c3lo, c3hi], max(c3hi, 1.0 / c3lo)


class TestEquivalences:
    def test_ball_conditions_equal_the_whole_grid_reading(self, disc_engine,
                                                          disc_field):
        egg = dom.egg(2)
        grid = dom.build_grid(egg, 0.3)
        eng = engine_for(egg, grid, degree=10)
        for engine, field, centers in [
                (disc_engine, disc_field, np.array([[0.0j], [0.3], [0.5j]])),
                (eng, GeodesicField(eng, grid),
                 np.array([[0.0j, 0.0j], [0.2, 0.1j]]))]:
            rep = t91_equivalences(engine, field, centers, r=0.8)
            c2, c3range, c3 = _ball_brackets(engine, field, centers, 0.8)
            assert rep["cond2_kernel_ratio_bracket"] == c2
            assert rep["cond3_mass_product_range"] == c3range
            assert rep["cond3_bracket"] == c3

    def test_disc_report_coherent(self, disc_engine, disc_field):
        centers = np.array([[0.0j], [0.3], [0.5j]])
        rep = t91_equivalences(disc_engine, disc_field, centers, r=1.0)
        assert rep["all_finite"] and rep["coherent"]
        assert not rep["cond5_skipped"]
        lo, hi = rep["cond3_mass_product_range"]
        # Moebius bound: B(z,z) mu(B(z,1)) in [rho^2/(1+rho)^4 ... ]
        assert lo >= RHO ** 2 / (1 + RHO) ** 4 / math.pi * math.pi * 0.9
        assert hi <= RHO ** 2 / (1 - RHO) ** 4 * 1.1

    def test_egg_skips_chart_condition(self):
        egg = dom.egg(2)
        grid = dom.build_grid(egg, 0.3)
        eng = engine_for(egg, grid, degree=10)
        field = GeodesicField(eng, grid)
        rep = t91_equivalences(eng, field, np.array([[0.0j, 0.0j]]),
                               r=0.8)
        assert rep["cond5_skipped"]
        assert rep["coherent"]

    def test_cond4_reads_the_lower_side_disc(self, disc_engine, disc_field):
        # on B(0, 0.3) density * ball mass stays below 1: about 2 pi rho^2,
        # rho = tanh(0.3 / sqrt 2), so the bracket is its reciprocal
        rep = t91_equivalences(disc_engine, disc_field, np.array([[0.0j]]),
                               r=0.3)
        rho = math.tanh(0.3 / math.sqrt(2.0))
        assert rep["cond4_volume_bracket"] == pytest.approx(
            1.0 / (2.0 * math.pi * rho ** 2), rel=0.1)

    def test_volume_equivalence_bracket_ball(self, ball2_engine,
                                             ball2_field):
        centers = np.array([[0.0j, 0.0j], [0.3, 0.1j]])
        est = volume_equivalence_bracket(ball2_engine, ball2_field,
                                         centers, r=1.0)
        assert math.isfinite(est.value) and est.value > 1.0


class TestAdmissibility:
    def test_excludes_near_boundary(self, disc_grid):
        idx = admissible_nodes(disc_grid)
        gaps = 1.0 - np.abs(disc_grid.nodes[idx, 0])
        assert np.min(gaps) >= 10 * disc_grid.resolution - 1e-12

    def test_coarse_grid_keeps_deep_interior(self):
        egg = dom.egg(2)
        grid = dom.build_grid(egg, 0.15)
        idx = admissible_nodes(grid)
        assert len(idx) > 0
