import math

import numpy as np
import pytest

from bergmanlab import domains as dom
from bergmanlab.geometry import GeodesicField, _ramp
from bergmanlab.harness import symbol_parse
from bergmanlab.kernels import engine_for, reinhardt_basis
from bergmanlab.operators import (compactness_indicator, hankel_matrix,
                                  weak_null_probe)

RHO = math.tanh(1.0 / math.sqrt(2.0))  # Euclidean radius of B(0,1) on disc
DISC_BALL_MASS = math.pi * RHO ** 2


@pytest.fixture(scope="session")
def disc_domain():
    return dom.disc()


@pytest.fixture(scope="session")
def bidisc_domain():
    return dom.polydisc(2)


@pytest.fixture(scope="session")
def ball2_domain():
    return dom.ball(2)


@pytest.fixture(scope="session")
def disc_grid(disc_domain):
    return dom.build_grid(disc_domain, 0.025)


@pytest.fixture(scope="session")
def disc_grid_fine(disc_domain):
    return dom.build_grid(disc_domain, 0.0125)


@pytest.fixture(scope="session")
def bidisc_grid(bidisc_domain):
    return dom.build_grid(bidisc_domain, 0.08)


@pytest.fixture(scope="session")
def ball2_grid(ball2_domain):
    return dom.build_grid(ball2_domain, 0.1)


@pytest.fixture(scope="session")
def disc_engine(disc_domain):
    return engine_for(disc_domain)


@pytest.fixture(scope="session")
def bidisc_engine(bidisc_domain):
    return engine_for(bidisc_domain)


@pytest.fixture(scope="session")
def ball2_engine(ball2_domain):
    return engine_for(ball2_domain)


@pytest.fixture(scope="session")
def disc_field(disc_engine, disc_grid):
    return GeodesicField(disc_engine, disc_grid)


@pytest.fixture(scope="session")
def disc_field_fine(disc_engine, disc_grid_fine):
    return GeodesicField(disc_engine, disc_grid_fine)


@pytest.fixture(scope="session")
def disc_field_dense(disc_engine, disc_grid_fine):
    """Denser geodesic graph: metrication error small enough for
    quantitative ball-integral oracles."""
    return GeodesicField(disc_engine, disc_grid_fine, neighbors_per_dim=32)


@pytest.fixture(scope="session")
def bidisc_field(bidisc_engine, bidisc_grid):
    return GeodesicField(bidisc_engine, bidisc_grid)


@pytest.fixture(scope="session")
def ball2_field(ball2_engine, ball2_grid):
    return GeodesicField(ball2_engine, ball2_grid)


@pytest.fixture(scope="session")
def bidisc_zbar2_signature(bidisc_domain, bidisc_engine, bidisc_grid):
    """Criterion 03's computation, read by it and by the operator tests:
    the conj(z2) count indicator over the res-0.08 bidisc grid at
    per-variable degrees 4/8/12/16 with threshold 0.85, and its probe at
    (t, 0), t = 0.5 ... 0.95, with the degree-16 basis on the degree-10
    product-polar grid.  Returns (indicator, probe values)."""
    sym = symbol_parse("conj(z2)", 2)

    def build(n):
        return hankel_matrix(sym,
                             reinhardt_basis(bidisc_domain, n,
                                             per_variable=True),
                             bidisc_grid, guard=0, per_variable=True)

    ind = compactness_indicator(build, (4, 8, 12, 16), threshold_ratio=0.85)
    centers = np.array([[t, 0.0] for t in (0.5, 0.7, 0.9, 0.95)],
                       dtype=complex)
    quad = dom.build_grid(bidisc_domain, 0.0, scheme="product-polar",
                          degree=10)
    probe = weak_null_probe(sym, bidisc_engine,
                            reinhardt_basis(bidisc_domain, 16,
                                            per_variable=True),
                            quad, centers)
    return ind, probe


def zbar1(dim):
    """conj(z1) as a SymbolFn; it reads z1 alone in any dimension dim."""
    from bergmanlab.operators import SymbolFn
    return SymbolFn(fn=lambda z: np.conj(np.atleast_2d(z)[:, 0]),
                    label="conj(z1)")


# -- the dense partition of unity, kept as the reference for the CSR one


def dense_partition_values(net):
    """The former dense Partition.values: the ramped table entries in a
    zero (n_centers, n_nodes) array, over the column sums."""
    chi = np.zeros(net.near.shape)
    near = net.near.tocoo()
    chi[near.row, near.col] = _ramp(near.data, net.separation,
                                    2.0 * net.separation)
    return chi / np.sum(chi, axis=0)


def dense_evaluate(part, points):
    """The former dense Partition.evaluate, (n_centers, n_pts) with zero
    columns outside every support: the least table row plus attach edge
    per slot into an inf-filled array, ramped and normalized in place."""
    idx, lengths = part.net.field._attach(points)
    by_node = part.net.near.T.tocsr()
    dist = np.full((len(part.net), len(idx)), np.inf)
    for j in range(idx.shape[1]):
        rows = by_node[idx[:, j]]
        pts = np.repeat(np.arange(len(idx)), np.diff(rows.indptr))
        np.minimum.at(dist, (rows.indices, pts), rows.data + lengths[pts, j])
    near = dist < part.r_outer
    dist[near] = _ramp(dist[near], part.r_inner, part.r_outer)
    dist[~near] = 0.0
    total = np.sum(dist, axis=0)
    return np.divide(dist, np.where(total > 0.0, total, 1.0), out=dist)


def lattice_neighbours(grid):
    """(up, down), each (n_nodes, 2d): the node one lattice step up or
    down each real axis (Re z_1 ... Re z_d, Im z_1 ... Im z_d), -1 where
    there is none.  Lattice coordinates come from rounding each node's
    coordinates, and neighbours from a dict lookup."""
    n_axis = math.ceil(2.0 / grid.resolution)
    x = np.concatenate([grid.nodes.real, grid.nodes.imag], axis=1)
    lattice = np.rint((x + 1.0) * n_axis / 2.0 - 0.5).astype(int).tolist()
    where = {tuple(p): i for i, p in enumerate(lattice)}
    up, down = (np.full(x.shape, -1) for _ in range(2))
    for i, p in enumerate(lattice):
        for k in range(len(p)):
            for s, out in ((1, up), (-1, down)):
                q = list(p)
                q[k] += s
                out[i, k] = where.get(tuple(q), -1)
    return up, down


def assert_no_stored_zeros(mat):
    """Every stored entry of a sparse matrix is nonzero."""
    assert mat.nnz == np.count_nonzero(mat.data)
