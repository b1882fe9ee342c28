"""The disc is the polydisc in C^1: every closed form on it, and the
product-polar grids and chart inverses of the ball and the egg, agree
bit for bit with the explicit formulas written out here.  Product-polar
rules are written orbit by orbit, the order build_grid keeps."""

import math

import numpy as np
import pytest

from bergmanlab import domains as dom
from bergmanlab.geometry import chart
from bergmanlab.kernels import engine_for, multi_indices


@pytest.fixture(scope="module")
def z():
    """A batch of disc points, some near the boundary, shape (n, 1)."""
    rng = np.random.default_rng(5)
    r = np.concatenate([rng.uniform(0.0, 0.95, 60), [0.0, 0.99, 0.999]])
    return (r * np.exp(2j * math.pi * rng.uniform(size=len(r))))[:, None]


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _phases(n_theta):
    return np.exp(1j * (2.0 * math.pi * np.arange(n_theta) / n_theta))


def _angles(moduli, wrad, n_theta):
    """Equispaced angles crossed with radial nodes, one coordinate at a
    time: the ball and egg grids as written before they shared code."""
    d = moduli.shape[1]
    mesh = np.meshgrid(*([np.arange(n_theta)] * d), indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=-1)
    zfull = (moduli[:, None, :].astype(complex)
             * _phases(n_theta)[idx][None, :, :]).reshape(-1, d)
    return zfull, np.repeat(wrad * (math.pi / n_theta) ** d, len(idx))


def _disc_rule(n_rad, n_theta):
    t, wt = _gauss01(n_rad)
    nodes = (np.sqrt(t)[:, None] * _phases(n_theta)[None, :]).ravel()
    return nodes[:, None], np.repeat(wt * math.pi / n_theta, n_theta)


def _ball2_rule(n_rad, n_theta):
    x, wx = _gauss01(n_rad)
    x1, x2 = (m.ravel() for m in np.meshgrid(x, x, indexing="ij"))
    w1, w2 = (m.ravel() for m in np.meshgrid(wx, wx, indexing="ij"))
    moduli = np.sqrt(np.stack([x1, x2 * (1.0 - x1)], axis=-1))
    return _angles(moduli, w1 * w2 * (1.0 - x1), n_theta)


def _egg_rule(m, n_rad, n_theta):
    tv, wv = _gauss01(n_rad * m)
    tu, wu = _gauss01(n_rad)
    U, V = np.meshgrid(tu, tv, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    scale = 1.0 - V ** m
    moduli = np.stack([np.sqrt((U * scale).ravel()), np.sqrt(V.ravel())],
                      axis=-1)
    return _angles(moduli, (WU * WV * scale).ravel(), n_theta)


class TestDiscClosedForms:
    def test_is_the_polydisc_in_one_variable(self):
        disc = dom.disc()
        assert (disc.kind, disc.dim, disc.label) == ("polydisc", 1, "disc")
        assert disc.homogeneous

    def test_kernel(self, z):
        e = engine_for(dom.disc())
        w = z[::-1]
        den = 1.0 - z[:, None, 0] * w[None, :, 0].conj()
        assert np.array_equal(e.kernel(z, w), 1.0 / (math.pi * den ** 2))
        den = 1.0 - z[:, 0] * z[:, 0].conj()
        assert np.array_equal(e.kernel_diag(z),
                              (1.0 / (math.pi * den ** 2)).real)

    def test_metric_and_log_gradient(self, z):
        e = engine_for(dom.disc())
        s = 1.0 - np.abs(z[:, 0]) ** 2
        g = e.metric_batch(z)
        assert g.dtype == complex
        assert np.array_equal(g, (2.0 / s ** 2).reshape(-1, 1, 1))
        assert np.array_equal(e.dlog_kernel(z),
                              (2.0 * z.conj()[:, 0] / s)[:, None])

    def test_membership_gap_and_residual(self, z):
        disc = dom.disc()
        outside = np.concatenate([z, 1.5 * z, [[1.0], [-1j]]])
        assert np.array_equal(dom.contains(disc, outside),
                              np.abs(outside[:, 0]) < 1.0)
        assert np.array_equal(dom.boundary_gap(disc, z),
                              1.0 - np.abs(z[:, 0]))
        assert np.array_equal(dom.boundary_residual(disc, outside),
                              np.abs(np.abs(outside[:, 0]) - 1.0))

    def test_volume_and_monomial_norms(self):
        disc = dom.disc()
        assert dom.lebesgue_volume(disc) == math.pi
        for (a,) in multi_indices(1, 30):
            assert dom.monomial_norm2(disc, [a]) == math.pi / (a + 1.0)

    @pytest.mark.parametrize("degree", [3, 8, 12])
    def test_product_polar_grid(self, degree):
        g = dom.build_grid(dom.disc(), 0.0, scheme="product-polar",
                           degree=degree)
        nodes, weights = _disc_rule(degree + 2, 2 * degree + 3)
        assert np.array_equal(g.nodes, nodes)
        assert np.array_equal(g.weights, weights)


@pytest.mark.parametrize("degree", [3, 8])
@pytest.mark.parametrize("domain, rule", [
    (dom.ball(2), _ball2_rule),
    (dom.egg(2), lambda n, k: _egg_rule(2, n, k)),
    (dom.egg(4), lambda n, k: _egg_rule(4, n, k)),
], ids=["ball2", "egg2", "egg4"])
def test_product_polar_ball_and_egg(domain, rule, degree):
    g = dom.build_grid(domain, 0.0, scheme="product-polar", degree=degree)
    nodes, weights = rule(degree + 2, 2 * degree + 3)
    assert np.array_equal(g.nodes, nodes)
    assert np.array_equal(g.weights, weights)


@pytest.mark.parametrize("rho", [0.5, 1.0])
@pytest.mark.parametrize("domain, center", [
    (dom.ball(2), [0.3 + 0.1j, -0.4j]),
    (dom.ball(2), [0.0j, 0.0j]),
    (dom.polydisc(2), [0.5j, -0.3 + 0.2j]),
    (dom.disc(), [0.4 - 0.3j]),
], ids=["ball2", "ball2-origin", "polydisc2", "disc"])
def test_chart_inverse(domain, center, rho):
    a = np.array(center)
    rng = np.random.default_rng(9)
    d = domain.dim
    z = 0.4 * (rng.normal(size=(40, d)) + 1j * rng.normal(size=(40, d)))
    z /= np.maximum(1.0, 1.1 * np.linalg.norm(z, axis=1))[:, None]
    if domain.kind == "ball":
        na2 = float(np.sum(np.abs(a) ** 2))
        if na2 < 1e-30:
            expected = z / rho
        else:
            s = math.sqrt(1.0 - na2)
            inner = z @ a.conj()
            proj = (inner / na2)[:, None] * a[None, :]
            expected = (a[None, :] - proj - s * (z - proj)) \
                / (1.0 - inner)[:, None] / rho
    else:
        expected = (z - a[None, :]) / (1.0 - a.conj()[None, :] * z) / rho
    cm = chart(domain, a, rho=rho)
    assert np.array_equal(cm.inverse(z), expected)
    np.testing.assert_allclose(cm.forward(cm.inverse(z)), z, atol=1e-14)
