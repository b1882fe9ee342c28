import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bergmanlab import domains as dom
from bergmanlab import operators
from bergmanlab.harness import bump_symbol, symbol_parse
from bergmanlab.kernels import (OrthonormalBasis, engine_for,
                               orthonormalize, reinhardt_basis)
from bergmanlab.operators import (OperatorError, SymbolFn,
                                  compactness_indicator, hankel_matrix,
                                  weak_null_probe)


def _zbar(j):
    return SymbolFn(fn=lambda z: np.conj(np.atleast_2d(z)[:, j]),
                    label=f"conj(z{j + 1})")


@pytest.fixture(scope="module")
def disc_quad(disc_domain):
    return dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                          degree=70)


@pytest.fixture(scope="module")
def bidisc_quad(bidisc_domain):
    # exact for the N=8 per-variable truncation; degree scales the node
    # count quadratically, so count-based tests use the midpoint grid
    return dom.build_grid(bidisc_domain, 0.0, scheme="product-polar",
                          degree=10)


def _mixed(dim):
    """conj(z_d) + |z_1|^2: a symbol whose Hankel truncations are
    nontrivial at every guard."""
    return SymbolFn(fn=lambda z: np.conj(np.atleast_2d(z)[:, dim - 1])
                    + np.abs(np.atleast_2d(z)[:, 0]) ** 2,
                    label="mixed")


# -- the assembly paths before the shared residual Gram, as references --


def _reference_subbasis(basis, degree, per_variable=False):
    """Restriction to monomials of lower degree (the former
    OrthonormalBasis.subbasis); a monomial basis keeps vector coeffs."""
    if per_variable:
        keep = np.all(basis.alphas <= degree, axis=1)
    else:
        keep = basis.alphas.sum(axis=1) <= degree
    if basis.coeffs.ndim == 1:
        coeffs = basis.coeffs[keep]
    else:
        cols = [k for k in range(basis.coeffs.shape[1])
                if np.allclose(basis.coeffs[~keep, k], 0.0)]
        coeffs = basis.coeffs[np.ix_(np.nonzero(keep)[0], cols)]
    return OrthonormalBasis(domain=basis.domain, alphas=basis.alphas[keep],
                            coeffs=coeffs,
                            grid=basis.grid, degree=degree,
                            dropped=basis.dropped)


def _reference_sigma(symbol, basis, grid, guard, per_variable):
    """Two-pass residual column Gram with the source columns evaluated
    from a separate sub-basis in each pass."""
    source = _reference_subbasis(basis, basis.degree - guard, per_variable) \
        if guard > 0 else basis
    nk, nj = len(basis), len(source)
    step = max(1, operators._CHUNK_BUDGET // (nk + nj))
    chunks = [(lo, min(len(grid), lo + step))
              for lo in range(0, len(grid), step)]
    A = np.zeros((nk, nj), dtype=complex)
    for lo, hi in chunks:
        nodes = grid.nodes[lo:hi]
        w = grid.weights[lo:hi]
        E = basis.evaluate(nodes)
        M = symbol(nodes)[:, None] * source.evaluate(nodes)
        A += (E.conj() * w[:, None]).T @ M
    G = np.zeros((nj, nj), dtype=complex)
    for lo, hi in chunks:
        nodes = grid.nodes[lo:hi]
        w = grid.weights[lo:hi]
        M = symbol(nodes)[:, None] * source.evaluate(nodes)
        M = M - basis.evaluate(nodes) @ A
        G += (M.conj() * w[:, None]).T @ M
    return operators._singular_values(0.5 * (G + G.conj().T))


def _reference_probe(symbol, engine, basis, grid, centers):
    """Full-grid residual norm of phi s_zeta, one center at a time, with
    s_zeta = B(., zeta) / sqrt(B(zeta, zeta)) built here from the kernel."""
    out = np.empty(len(centers))
    phi_vals = symbol(grid.nodes)
    E = basis.evaluate(grid.nodes)
    for i, zeta in enumerate(centers):
        zeta = np.asarray(zeta, dtype=complex).reshape(1, -1)
        s = engine.kernel(grid.nodes, zeta) \
            / math.sqrt(engine.kernel_diag(zeta)[0])
        v = phi_vals * s
        r = v - E @ ((E.conj() * grid.weights[:, None]).T @ v)
        out[i] = np.sqrt(np.sum(grid.weights * np.abs(r) ** 2))
    return out


@pytest.fixture(scope="module")
def egg_case():
    egg = dom.egg(2)
    grid = dom.build_grid(egg, 0.2)
    return egg, grid, engine_for(egg, grid, degree=6)


# one entry, so the test ids keep their "hankel" parameter
_BUILDERS = {"hankel": hankel_matrix}


class TestResidualGram:
    # on tensor-midpoint grids every orbit is one node, so the orbit sums
    # are the reference's node sums bit for bit
    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    @pytest.mark.parametrize("guard", [0, 2, 5])
    def test_disc_reinhardt_identical(self, disc_domain, kind, guard):
        build = _BUILDERS[kind]
        grid = dom.build_grid(disc_domain, 0.05)
        basis = reinhardt_basis(disc_domain, 20)
        for sym in (_zbar(0), _mixed(1)):
            sig = build(sym, basis, grid, guard=guard).singular_values
            ref = _reference_sigma(sym, basis, grid, guard, False)
            assert np.array_equal(sig, ref)

    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    @pytest.mark.parametrize("guard", [0, 2])
    def test_bidisc_reinhardt_identical(self, bidisc_domain, kind, guard):
        build = _BUILDERS[kind]
        grid = dom.build_grid(bidisc_domain, 0.2)
        basis = reinhardt_basis(bidisc_domain, 8, per_variable=True)
        sym = _mixed(2)
        trunc = build(sym, basis, grid, guard=guard, per_variable=True)
        ref = _reference_sigma(sym, basis, grid, guard, True)
        assert trunc.source_size == (9 - guard) ** 2
        assert np.array_equal(trunc.singular_values, ref)

    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    @pytest.mark.parametrize("guard", [0, 2])
    def test_egg_cholesky_basis_close(self, egg_case, kind, guard):
        build = _BUILDERS[kind]
        _, grid, engine = egg_case
        basis = engine.basis
        assert basis.dropped == 0  # graded Cholesky path
        sym = _mixed(2)
        sig = build(sym, basis, grid, guard=guard).singular_values
        ref = _reference_sigma(sym, basis, grid, guard, False)
        assert len(sig) == len(ref)
        assert np.max(np.abs(sig - ref)) <= 1e-12 * ref[0]

    @pytest.mark.parametrize("budget", [4_000_000, 2_000])
    def test_probe_matches_full_grid(self, disc_domain, disc_quad,
                                     bidisc_domain, bidisc_engine,
                                     bidisc_quad, egg_case, monkeypatch,
                                     budget):
        monkeypatch.setattr(operators, "_CHUNK_BUDGET", budget)
        _, egg_grid, egg_engine = egg_case
        cases = [
            (_zbar(0), engine_for(disc_domain),
             reinhardt_basis(disc_domain, 40), disc_quad,
             np.array([[t + 0.1j] for t in (0.0, 0.5, 0.7, 0.9)])),
            (_mixed(2), bidisc_engine,
             reinhardt_basis(bidisc_domain, 8, per_variable=True),
             bidisc_quad,
             np.array([[0.5, 0.2j], [0.1, 0.9], [-0.3j, 0.95]])),
            (_mixed(2), egg_engine, egg_engine.basis, egg_grid,
             np.array([[0.1, 0.2j], [0.5j, -0.3]])),
        ]
        for sym, engine, basis, grid, centers in cases:
            vals = weak_null_probe(sym, engine, basis, grid, centers)
            ref = _reference_probe(sym, engine, basis, grid, centers)
            np.testing.assert_allclose(vals, ref, rtol=1e-14, atol=0)


# (domain, product-polar degree, basis degree, per_variable); in the
# aliased cases basis modes coincide mod n_theta = 2 * degree + 3
_ORBIT_CASES = {"disc": (dom.disc(), 24, 8, False),
                "polydisc2": (dom.polydisc(2), 6, 6, True),
                "ball2": (dom.ball(2), 6, 6, False),
                "egg2": (dom.egg(2), 6, 6, False),
                "disc-aliased": (dom.disc(), 3, 12, False),
                "polydisc2-aliased": (dom.polydisc(2), 2, 8, True)}
# criterion 04's symbols, bump among them; on the disc, those that parse
# in one variable and z1*z1 for z2*z2
_ORBIT_SYMBOLS = ("conj(z1)", "conj(z2)", "conj(z1)+conj(z2)", "z2*z2",
                  "bump", "abs2(z1)")


def _assert_sigma_close(sig, ref, label):
    """Singular values within 1e-12 sigma_0, except where both sides
    read below 1e-7 sigma_0.  Both come from sqrt(eigvalsh(G)), so an
    exact zero reads up to about 5e-8 sigma_0 on either side (the square
    root of an eigvalsh error near 1e-16 sigma_0^2 times the width)."""
    assert len(sig) == len(ref), label
    close = np.abs(sig - ref) <= 1e-12 * ref[0]
    both_zero = np.maximum(sig, ref) < 1e-7 * ref[0]
    assert np.all(close | both_zero), label


class TestOrbitAssembly:
    # at budget 200 the orbit path takes one orbit per chunk; the
    # reference keeps the default chunks
    @pytest.mark.parametrize("budget", [4_000_000, 200])
    @pytest.mark.parametrize("name", sorted(_ORBIT_CASES))
    def test_matches_node_path(self, name, budget, monkeypatch):
        domain, grid_degree, degree, pv = _ORBIT_CASES[name]
        grid = dom.build_grid(domain, 0.0, scheme="product-polar",
                              degree=grid_degree)
        basis = reinhardt_basis(domain, degree, per_variable=pv)
        exprs = _ORBIT_SYMBOLS if domain.dim == 2 else (
            "conj(z1)", "z1*z1", "bump", "abs2(z1)")
        for expr in exprs:
            sym = bump_symbol(domain.dim) if expr == "bump" \
                else symbol_parse(expr, domain.dim)
            for guard in (0, 2):
                ref = _reference_sigma(sym, basis, grid, guard, pv)
                with monkeypatch.context() as m:
                    m.setattr(operators, "_CHUNK_BUDGET", budget)
                    sig = hankel_matrix(sym, basis, grid, guard=guard,
                                        per_variable=pv).singular_values
                if expr in ("z2*z2", "z1*z1") and guard == 2 \
                        and not name.endswith("aliased"):
                    # H_phi = 0 on these columns
                    assert sig[0] < 1e-12 and ref[0] < 1e-12
                    continue
                _assert_sigma_close(sig, ref, (expr, guard))

    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_dense_basis_on_product_polar_grid_identical(self, kind):
        """A dense basis puts each node in an orbit of its own, where
        the orbit sums are the node sums bit for bit."""
        build = _BUILDERS[kind]
        for domain, pv in ((dom.egg(2), False), (dom.polydisc(2), True)):
            grid = dom.build_grid(domain, 0.0, scheme="product-polar",
                                  degree=6)
            basis = orthonormalize(domain, grid, 4, per_variable=pv)
            assert not basis.monomial
            for sym in (_zbar(0), _mixed(2)):
                sig = build(sym, basis, grid, guard=0,
                            per_variable=pv).singular_values
                ref = _reference_sigma(sym, basis, grid, 0, pv)
                assert np.array_equal(sig, ref)


# -- the shared pool: each Gram is the same bit for bit at 1 and 2 workers --

def _plain_residual_gram(basis, grid, n, columns, width):
    """_residual_gram as one thread sums it: each chunk of orbits built
    whole, the read-off's products one per run of functions, the Gram
    one product per chunk."""
    d = grid.domain.dim
    T = n ** d
    k = len(basis)
    modes = np.ravel_multi_index(tuple((basis.alphas[:k] % n).T), (n,) * d)
    starts = np.flatnonzero(np.diff(modes, prepend=-1))
    runs = [slice(a, b) for a, b in zip(starts, np.append(starts[1:], k))]
    step = max(1, operators._CHUNK_BUDGET // (k + T * width))

    def chunk(lo, at):
        nodes = slice(lo * T, (lo + step) * T)
        S = basis.evaluate(grid.nodes[nodes][::T])
        return (grid.weights[nodes][::T], S,
                columns(slice(lo, lo + step), grid.nodes[nodes], S, at))

    def read_off(w, S, V):
        return np.concatenate([(S[:, r].conj() * (T * w)[:, None]).T
                               @ V[:, g] for g, r in enumerate(runs)])

    def gram(w, S, V):
        for r in runs:
            V[:, modes[r.start]] -= S[:, r] @ TA[r]
        V = V.reshape(-1, width)
        return (V.conj() * np.repeat(w / T, T)[:, None]).T @ V

    orbits = range(0, len(grid) // T, step)
    TA = sum(read_off(*chunk(lo, modes[starts])) for lo in orbits)
    G = sum(gram(*chunk(lo, slice(None))) for lo in orbits)
    return 0.5 * (G + G.conj().T)


def _pool_case(name):
    """(symbol, basis, grid, engine, centres, per_variable, budget):
    a tensor bidisc and a dense orthonormalized egg2 basis (one run of
    functions, and a numerical engine whose kernel_diag asks for the
    pool from inside a pool task), each in four chunks at one column
    and more at more; the degree-10 product-polar bidisc (a run per
    mode), in four chunks at 49 columns; and a product-polar disc whose
    runs of one function read off from contiguous vectors."""
    centres = np.array([[0.5, 0.2j], [0.1, 0.6], [-0.3j, 0.4]])
    if name == "disc":
        disc = dom.disc()
        grid = dom.build_grid(disc, 0.0, scheme="product-polar", degree=24)
        return (symbol_parse("conj(z1)", 1), reinhardt_basis(disc, 8),
                grid, engine_for(disc), centres[:, :1], False, 4_000_000)
    bidisc = dom.polydisc(2)
    if name == "egg2":
        egg = dom.egg(2)
        grid = dom.build_grid(egg, 0.2)
        engine = engine_for(egg, grid, degree=6)
        basis, pv = engine.basis, False
    else:
        engine = engine_for(bidisc)
        basis, pv = reinhardt_basis(bidisc, 6, per_variable=True), True
    if name == "product-polar":
        grid = dom.build_grid(bidisc, 0.0, scheme="product-polar",
                              degree=10)
        return _mixed(2), basis, grid, engine, centres, pv, 1_000_000
    if name == "tensor":
        grid = dom.build_grid(bidisc, 0.2)
    return (_mixed(2), basis, grid, engine, centres, pv,
            len(grid) * (len(basis) + 1) // 4)


def _check_worker_counts(name):
    """Hankel truncations and the probe (three centres, and each
    centre alone, whose one column is never split) at
    1 and 2 workers: np.array_equal to each other and to the plain
    one-thread sum, and equal to the node-sum references, bitwise where
    they sum the same nodes in the same order."""
    from bergmanlab import kernels
    sym, basis, grid, engine, centres, pv, budget = _pool_case(name)
    operators._CHUNK_BUDGET = budget
    probes = [centres] + [centres[i:i + 1] for i in range(len(centres))]

    def outputs():
        return [hankel_matrix(sym, basis, grid, guard=guard,
                              per_variable=pv).singular_values
                for guard in (0, 2)] \
            + [weak_null_probe(sym, engine, basis, grid, c)
               for c in probes]

    results = []
    for workers in (1, 2):
        kernels._WORKERS = workers
        results.append(outputs())
    pooled = operators._residual_gram
    operators._residual_gram = _plain_residual_gram
    results.append(outputs())
    operators._residual_gram = pooled
    for one, two, plain in zip(*results):
        assert np.array_equal(one, two), name
        assert np.array_equal(one, plain), name
    refs = [_reference_sigma(sym, basis, grid, guard, pv)
            for guard in (0, 2)]
    for sig, ref, guard in zip(results[0], refs, (0, 2)):
        if name == "tensor" or (name == "egg2" and guard == 0):
            assert np.array_equal(sig, ref), (name, guard)
        else:
            _assert_sigma_close(sig, ref, (name, guard))
    for vals, c in zip(results[0][2:], probes):
        np.testing.assert_allclose(
            vals, _reference_probe(sym, engine, basis, grid, c),
            rtol=1e-14, atol=0)


class TestSharedPool:
    # The pool has more than one worker only beside one BLAS thread, so
    # the check runs in an interpreter that pins BLAS to one thread,
    # whatever this session's BLAS uses.
    @pytest.mark.parametrize("name", ["tensor", "product-polar", "egg2",
                                      "disc"])
    def test_equal_at_one_and_two_workers(self, name):
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, here]))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_operators as t; "
             f"t._check_worker_counts({name!r})"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-3000:]


class TestEdgeCases:
    @pytest.mark.parametrize("build", [hankel_matrix])
    def test_guard_leaving_no_column_rejected(self, disc_domain, disc_quad,
                                              build):
        basis = reinhardt_basis(disc_domain, 4)
        with pytest.raises(OperatorError, match="guard 5.*degree 4"):
            build(_zbar(0), basis, disc_quad, guard=5)

    def test_probe_without_centers_rejected(self, disc_domain, disc_quad):
        with pytest.raises(OperatorError, match="center"):
            weak_null_probe(_zbar(0), engine_for(disc_domain),
                            reinhardt_basis(disc_domain, 4), disc_quad, [])

    def test_probe_center_outside_rejected(self, disc_domain, disc_quad):
        with pytest.raises(OperatorError, match="outside the domain"):
            weak_null_probe(_zbar(0), engine_for(disc_domain),
                            reinhardt_basis(disc_domain, 4), disc_quad,
                            [[0.5], [1.5]])

    @pytest.mark.parametrize("build", [hankel_matrix])
    def test_negative_guard_rejected(self, disc_domain, disc_quad, build):
        with pytest.raises(OperatorError, match="guard must be "
                                                "non-negative, not -3"):
            build(_zbar(0), reinhardt_basis(disc_domain, 4), disc_quad,
                  guard=-3)

    def test_indicator_without_degrees_rejected(self):
        def build(n):
            raise AssertionError("no degree to build")
        with pytest.raises(OperatorError, match="at least one degree"):
            compactness_indicator(build, [])

    def test_indicator_with_empty_probe_rejected(self):
        def build(n):
            return operators.OperatorTruncation(
                source_size=1, singular_values=np.ones(1))
        with pytest.raises(OperatorError, match="at least one probe value"):
            compactness_indicator(build, [4, 8], probe_values=[])


class TestHankelOracle:
    def test_disc_zbar_singular_values(self, disc_domain, disc_quad):
        basis = reinhardt_basis(disc_domain, 60)
        trunc = hankel_matrix(_zbar(0), basis, disc_quad, guard=0)
        sig = trunc.singular_values
        for j in range(11):
            oracle = 1.0 / math.sqrt((j + 1) * (j + 2))
            assert sig[j] == pytest.approx(oracle, abs=1e-4)

    def test_holomorphic_symbol_gives_zero(self, disc_domain, disc_quad):
        sym = SymbolFn(fn=lambda z: np.atleast_2d(z)[:, 0] ** 2,
                       label="z1^2")
        basis = reinhardt_basis(disc_domain, 20)
        trunc = hankel_matrix(sym, basis, disc_quad, guard=5)
        assert trunc.singular_values[0] <= 1e-8

    def test_bidisc_tensor_multiplicity(self, bidisc_domain, bidisc_quad):
        basis = reinhardt_basis(bidisc_domain, 8, per_variable=True)
        trunc = hankel_matrix(_zbar(1), basis, bidisc_quad, guard=0,
                              per_variable=True)
        sig = trunc.singular_values
        # sigma = 1/sqrt(2) with multiplicity N+1 = 9
        count = int(np.sum(sig > 0.6))
        assert count == 9
        assert sig[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


class TestCompactnessIndicator:
    def test_disc_zbar_flagged_compact(self, disc_domain, disc_quad,
                                       disc_field):
        sym = _zbar(0)
        def build(n):
            return hankel_matrix(sym, reinhardt_basis(disc_domain, n),
                                 disc_quad, guard=0)
        centers = np.array([[t + 0.0j] for t in (0.5, 0.7, 0.9, 0.95)])
        probe = weak_null_probe(sym, engine_for(disc_domain),
                                reinhardt_basis(disc_domain, 40),
                                disc_quad, centers)
        ind = compactness_indicator(build, (4, 8, 12, 16),
                                    probe_values=probe)
        assert ind.compact
        assert max(ind.counts) - min(ind.counts) <= 1

    def test_bidisc_zbar2_flagged_noncompact(self, bidisc_zbar2_signature):
        # sigma > 0.6 = 0.85 * sigma_0: isolates the top cluster
        ind, _ = bidisc_zbar2_signature
        assert not ind.compact
        # counts grow linearly: N + 1 within 1
        for n, c in zip(ind.degrees, ind.counts):
            assert abs(c - (n + 1)) <= 1

    def test_weak_null_probe_stays_up_noncompact(self,
                                                 bidisc_zbar2_signature):
        _, probe = bidisc_zbar2_signature
        assert np.min(probe) >= 0.3


class TestSymbolChecks:
    def test_nonfinite_symbol_rejected(self, disc_domain, disc_quad):
        bad = SymbolFn(fn=lambda z: 1.0 / (1.0 - np.atleast_2d(z)[:, 0]),
                       label="pole")
        with pytest.raises(OperatorError):
            bad(np.array([[1.0 + 0j]]))
