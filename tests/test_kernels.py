import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergmanlab import domains as dom
from bergmanlab import kernels
from bergmanlab.kernels import (KernelEngine, KernelError, engine_for,
                                monomial_matrix, multi_indices,
                                orthonormalize, reinhardt_basis)


class TestClosedForms:
    def test_disc_kernel_value(self, disc_engine):
        z, w = 0.3 + 0.1j, 0.2 - 0.4j
        expected = 1.0 / (math.pi * (1.0 - z * np.conj(w)) ** 2)
        got = disc_engine.kernel(np.array([z])[None, :],
                                 np.array([w])[None, :])[0]
        assert got == pytest.approx(expected)

    def test_ball_kernel_value(self, ball2_engine):
        z = np.array([0.3, 0.2j])
        w = np.array([0.1, -0.4])
        ip = np.sum(z * np.conj(w))
        expected = 2.0 / (math.pi ** 2 * (1.0 - ip) ** 3)
        assert ball2_engine.kernel(z[None, :], w[None, :])[0] \
            == pytest.approx(expected)

    def test_polydisc_kernel_is_product(self, bidisc_engine, disc_engine):
        z = np.array([0.3 + 0.1j, -0.2j])
        w = np.array([0.5, 0.1 + 0.1j])
        prod = 1.0
        for j in range(2):
            prod *= disc_engine.kernel(z[j:j + 1][None, :],
                                       w[j:j + 1][None, :])[0]
        assert bidisc_engine.kernel(z[None, :], w[None, :])[0] \
            == pytest.approx(prod)

    def test_hermitian_symmetry(self, ball2_engine):
        z = np.array([[0.3, 0.2j]])
        w = np.array([[0.1 - 0.2j, 0.4]])
        assert ball2_engine.kernel(z, w)[0] == pytest.approx(
            np.conj(ball2_engine.kernel(w, z)[0]))

    def test_singular_pair_rejected(self, disc_engine):
        with pytest.raises(KernelError):
            disc_engine.kernel(np.array([[1.0 + 0j]]),
                               np.array([[1.0 + 0j]]))


class TestNumericalKernel:
    def test_disc_numerical_matches_closed_form(self, disc_domain,
                                                disc_engine):
        grid = dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                              degree=40)
        num = engine_for(disc_domain, grid, degree=40)
        rng = np.random.default_rng(1)
        pts = 0.8 * (rng.uniform(-1, 1, (30, 1))
                     + 1j * rng.uniform(-1, 1, (30, 1)))
        pts = pts[np.abs(pts[:, 0]) <= 0.8]
        worst = 0.0
        for i in range(len(pts) - 1):
            a = num.kernel(pts[i:i + 1], pts[i + 1:i + 2])[0]
            b = disc_engine.kernel(pts[i:i + 1], pts[i + 1:i + 2])[0]
            worst = max(worst, abs(a - b) / abs(b))
        assert worst <= 1e-6

    def test_reinhardt_basis_reproduces_kernel(self, bidisc_domain,
                                               bidisc_engine):
        num = KernelEngine(bidisc_domain,
                           basis=reinhardt_basis(bidisc_domain, 30))
        z = np.array([[0.4, 0.3j]])
        a = num.kernel_diag(z)[0]
        b = bidisc_engine.kernel_diag(z)[0]
        assert a == pytest.approx(b, rel=1e-6)

    def test_orthonormalize_gram_identity(self, disc_domain):
        grid = dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                              degree=12)
        basis = orthonormalize(disc_domain, grid, 12)
        E = basis.evaluate(grid.nodes)
        G = (E.conj() * grid.weights[:, None]).T @ E
        assert np.max(np.abs(G - np.eye(len(basis)))) < 1e-10

    @pytest.mark.parametrize("per_variable", [False, True])
    def test_reinhardt_vector_coeffs_match_diagonal(self, per_variable):
        """Column scaling by the coefficient vector is the former
        product with the dense diagonal, bit for bit."""
        domain = dom.polydisc(2)
        basis = reinhardt_basis(domain, 7, per_variable=per_variable)
        c = basis.coeffs
        assert c.ndim == 1 and basis.monomial
        z = np.random.default_rng(3).uniform(-0.7, 0.7, (50, 2)) \
            * np.exp(2j * np.pi * np.random.default_rng(4).random((50, 2)))
        assert np.array_equal(basis.evaluate(z),
                              monomial_matrix(z, basis.alphas) @ np.diag(c))
        for j in range(2):
            shifted = basis.alphas.copy()
            shifted[:, j] = np.maximum(shifted[:, j] - 1, 0)
            D = monomial_matrix(z, shifted) * basis.alphas[None, :, j]
            assert np.array_equal(basis.evaluate_derivative(z, j),
                                  D @ np.diag(c))
        assert np.array_equal(basis.graded_columns(3, per_variable),
                              np.flatnonzero(
                                  np.all(basis.alphas <= 3, axis=1)
                                  if per_variable
                                  else basis.alphas.sum(axis=1) <= 3))

    def test_graded_columns_span_low_degrees(self, disc_domain):
        grid = dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                              degree=10)
        basis = orthonormalize(disc_domain, grid, 10)
        cols = basis.graded_columns(4)
        assert len(cols) == len(multi_indices(1, 4))
        used = np.any(np.abs(basis.coeffs[:, cols]) > 1e-8, axis=1)
        assert np.max(basis.alphas.sum(axis=1)[used]) <= 4


class TestMetric:
    def test_disc_metric_closed_form(self, disc_engine):
        z = 0.4 + 0.2j
        g = disc_engine.metric(np.array([z]))[0, 0].real
        assert g == pytest.approx(2.0 / (1.0 - abs(z) ** 2) ** 2)

    def test_ball_metric_determinant(self, ball2_engine):
        z = np.array([0.3, 0.1j])
        det = ball2_engine.volume_density_batch(z)[0]
        s = 1.0 - np.sum(np.abs(z) ** 2)
        assert det == pytest.approx(9.0 / s ** 3)

    def test_basis_metric_matches_closed_form(self, disc_domain, disc_engine):
        grid = dom.build_grid(disc_domain, 0.025)
        num = engine_for(disc_domain, grid, degree=30)
        z = np.array([0.3 + 0.2j])
        a = num.metric(z)[0, 0].real
        b = disc_engine.metric(z)[0, 0].real
        assert a == pytest.approx(b, rel=2e-3)

    def test_near_boundary_metric_refused(self, disc_domain):
        grid = dom.build_grid(disc_domain, 0.025)
        num = engine_for(disc_domain, grid, degree=20)
        with pytest.raises(KernelError):
            num.metric(np.array([0.999 + 0j]))

    @pytest.mark.parametrize("kind", ["closed-form", "numerical"])
    def test_one_point_is_the_one_row_batch(self, kind, request):
        eng = request.getfixturevalue(
            "ball2_engine" if kind == "closed-form" else "egg_engine")
        assert eng.mode == kind
        # |z_j| <= 0.25: inside the ball and clear of the egg's guard
        for zeta in 0.5 * _egg_points(5):
            assert np.array_equal(eng.metric(zeta),
                                  eng.metric_batch(zeta[None])[0])

    @given(x=st.floats(-0.7, 0.7), y=st.floats(-0.7, 0.7))
    @settings(max_examples=25, deadline=None)
    def test_metric_positive_definite_ball(self, x, y):
        eng = engine_for(dom.ball(2))
        z = np.array([[x * 0.7 + 0.1j * y, y * 0.7]])
        lam = np.linalg.eigvalsh(eng.metric_batch(z))[0]
        assert lam[0] > 0

    def test_dlog_kernel_disc(self, disc_engine):
        z = np.array([[0.5 + 0.0j]])
        grad = disc_engine.dlog_kernel(z)[0, 0]
        assert grad == pytest.approx(2 * 0.5 / (1 - 0.25))

    def test_s_section_normalized(self, disc_engine, disc_grid):
        zeta = np.array([0.3 + 0.2j])
        s = disc_engine.s_section(zeta, disc_grid.nodes)
        mass = np.sum(disc_grid.weights * np.abs(s) ** 2)
        assert mass == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("kind", ["disc", "ball2"])
    def test_s_section_batch_is_per_centre(self, kind, disc_engine,
                                           disc_grid, ball2_engine,
                                           ball2_grid):
        eng, grid = {"disc": (disc_engine, disc_grid),
                     "ball2": (ball2_engine, ball2_grid)}[kind]
        centres = grid.nodes[::97][:5] * 0.9
        s = eng.s_section(centres, grid.nodes)
        assert s.shape == (len(grid), len(centres))
        for k, zeta in enumerate(centres):
            assert np.array_equal(s[:, k], eng.s_section(zeta, grid.nodes))


@pytest.fixture(scope="module")
def egg_engine():
    egg = dom.egg(2)
    return engine_for(egg, dom.build_grid(egg, 0.15), degree=10)


def _egg_points(n):
    """n seeded points with |z_j| <= 0.5, inside the egg."""
    rng = np.random.default_rng(20)
    return 0.5 * np.sqrt(rng.uniform(0, 1, (n, 2))) \
        * np.exp(2j * np.pi * rng.uniform(0, 1, (n, 2)))


def _one_block(eng, z):
    """kernel_diag, metric_batch and dlog_kernel from one evaluate and
    one evaluate_derivative per coordinate over all rows of z."""
    E = eng.basis.evaluate(z)
    B = np.sum(np.abs(E) ** 2, axis=1)
    Fs = [eng.basis.evaluate_derivative(z, j) for j in range(z.shape[1])]
    F = np.stack(Fs, axis=1)
    v = np.einsum("mjb,mb->mj", F, E.conj())
    T = np.einsum("mjb,mkb->mjk", F, F.conj())
    g = T / B[:, None, None] \
        - v[:, :, None] * v.conj()[:, None, :] / (B ** 2)[:, None, None]
    g = 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))
    dlog = np.stack([np.einsum("mb,mb->m", Fj, E.conj()) / B
                     for Fj in Fs], axis=1)
    return {"kernel_diag": B, "metric_batch": g, "dlog_kernel": dlog}


class TestRowChunks:
    """The numerical batches run in row chunks, on a pool when there are
    several chunks and workers; every row is the same bit for bit as in
    one block."""

    QUANTITIES = ("kernel_diag", "metric_batch", "dlog_kernel")

    @staticmethod
    def _width(eng, quantity):
        nb = len(eng.basis.alphas)
        return nb if quantity == "kernel_diag" else 3 * nb

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_equal_one_block(self, egg_engine, workers, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        n = 3 * (kernels._CHUNK_VALUES // len(egg_engine.basis.alphas)) + 5
        z = _egg_points(n)
        for quantity in self.QUANTITIES:
            assert len(kernels._row_chunks(
                n, self._width(egg_engine, quantity))) >= 3
        ref = _one_block(egg_engine, z)
        for quantity in self.QUANTITIES:
            assert np.array_equal(getattr(egg_engine, quantity)(z),
                                  ref[quantity]), quantity

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_row_after_one_chunk(self, egg_engine, quantity, monkeypatch):
        # a split by a fixed step would leave the last row alone in a
        # chunk; gemv's rounding shows in B for only some points, so the
        # last row runs over several points
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        n = kernels._CHUNK_VALUES // self._width(egg_engine, quantity) + 1
        z = _egg_points(n + 7)
        for last in range(n - 1, n + 7):
            zk = np.vstack([z[:n - 1], z[last:last + 1]])
            got = getattr(egg_engine, quantity)(zk)
            assert np.array_equal(
                got[-1], _one_block(egg_engine, zk)[quantity][-1]), last

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 1000])
    def test_split_is_near_equal_with_no_single_row(self, n):
        chunks = kernels._row_chunks(n, 300)
        sizes = [s.stop - s.start for s in chunks]
        assert sum(sizes) == n
        assert [s.start for s in chunks] \
            == [sum(sizes[:i]) for i in range(len(sizes))]
        if n > 1:
            assert min(sizes) >= 2 and max(sizes) - min(sizes) <= 1

    def test_blas_threads_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("OMP_NUM_THREADS", "5")
        assert kernels._blas_threads() == 3
        for ignored in ("", "0", "two"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", ignored)
            assert kernels._blas_threads() == 5
            monkeypatch.setenv("OMP_NUM_THREADS", ignored)
            assert kernels._blas_threads() == kernels._cores()
            monkeypatch.setenv("OMP_NUM_THREADS", "5")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert kernels._blas_threads() == kernels._cores()

    def test_chunk_error_propagates_from_the_pool(self, egg_engine,
                                                   monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        raised_in = []

        def boom(z, alphas):
            raised_in.append(threading.current_thread())
            raise KernelError("chunk failed")

        # the basis evaluation inside each chunk's pool task
        monkeypatch.setattr(kernels, "monomial_matrix", boom)
        with pytest.raises(KernelError, match="chunk failed"):
            egg_engine.metric_batch(_egg_points(2000))
        assert raised_in and threading.main_thread() not in raised_in


# -- the per-quantity routines that the one batch routine replaced ----


def _by_row_chunks(fn, z, out, width):
    def work(s):
        out[s] = fn(z[s])

    list(kernels._pool_map(work, kernels._row_chunks(len(z), width)))
    return out


def _basis_diag(eng, z):
    return _by_row_chunks(
        lambda z: np.sum(np.abs(eng.basis.evaluate(z)) ** 2, axis=1),
        z, np.empty(len(z)), len(eng.basis.alphas))


def _basis_metric_rows(eng, z):
    d = z.shape[1]
    E = eng.basis.evaluate(z)
    B = np.sum(np.abs(E) ** 2, axis=1)
    F = np.stack([eng.basis.evaluate_derivative(z, j)
                  for j in range(d)], axis=1)
    v = np.einsum("mjb,mb->mj", F, E.conj())
    T = np.einsum("mjb,mkb->mjk", F, F.conj())
    return T / B[:, None, None] \
        - v[:, :, None] * v.conj()[:, None, :] / (B ** 2)[:, None, None]


def _basis_metric(eng, z):
    n, d = z.shape
    g = _by_row_chunks(lambda z: _basis_metric_rows(eng, z), z,
                       np.empty((n, d, d), dtype=complex),
                       (d + 1) * len(eng.basis.alphas))
    return 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))


def _basis_dlog_rows(eng, z):
    E = eng.basis.evaluate(z)
    B = np.sum(np.abs(E) ** 2, axis=1)
    out = np.empty_like(z)
    for j in range(z.shape[1]):
        F = eng.basis.evaluate_derivative(z, j)
        out[:, j] = np.einsum("mb,mb->m", F, E.conj()) / B
    return out


def _basis_dlog(eng, z):
    return _by_row_chunks(lambda z: _basis_dlog_rows(eng, z), z,
                          np.empty_like(z),
                          (z.shape[1] + 1) * len(eng.basis.alphas))


def _closed_form_metric(eng, z):
    n, d = z.shape
    if eng.domain.kind == "ball":
        nrm2 = np.sum(np.abs(z) ** 2, axis=1)
        s = 1.0 - nrm2
        eye = np.eye(d)
        g = (d + 1) * (s[:, None, None] * eye[None]
                       + z.conj()[:, :, None] * z[:, None, :])
        return g / (s ** 2)[:, None, None]
    g = np.zeros((n, d, d), dtype=complex)
    for j in range(d):
        g[:, j, j] = 2.0 / (1.0 - np.abs(z[:, j]) ** 2) ** 2
    return g


def _closed_form_dlog(eng, z):
    d = eng.domain.dim
    if eng.domain.kind == "ball":
        s = 1.0 - np.sum(np.abs(z) ** 2, axis=1)
        return (d + 1) * z.conj() / s[:, None]
    s = 1.0 - np.abs(z) ** 2
    return 2.0 * z.conj() / s


@pytest.fixture(scope="module")
def disc20_engine():
    disc = dom.disc()
    return engine_for(disc, dom.build_grid(disc, 0.025), degree=20)


class TestOneBatchRoutine:
    """_batch's three orders equal, bit for bit, the routines it replaced
    (kept above): on a numerical engine for one, two and several row
    chunks at one and two workers, and on every closed-form kind."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rows", ["one", "two", "several-chunks"])
    @pytest.mark.parametrize("name", ["egg2-10", "disc-20"])
    def test_basis_batch_equals_the_three_routines(
            self, name, rows, workers, egg_engine, disc20_engine,
            monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        eng = egg_engine if name == "egg2-10" else disc20_engine
        nb, d = len(eng.basis.alphas), eng.domain.dim
        n = {"one": 1, "two": 2,
             "several-chunks": 3 * (kernels._CHUNK_VALUES // nb) + 5}[rows]
        z = _egg_points(n)[:, :d]
        if rows == "several-chunks":
            assert len(kernels._row_chunks(n, (d + 1) * nb)) \
                >= len(kernels._row_chunks(n, nb)) >= 3
        assert np.array_equal(eng._basis_batch(z, 0), _basis_diag(eng, z))
        assert np.array_equal(eng._basis_batch(z, 1), _basis_dlog(eng, z))
        assert np.array_equal(eng._basis_batch(z, 2), _basis_metric(eng, z))
        assert np.array_equal(eng.kernel_diag(z), _basis_diag(eng, z))
        assert np.array_equal(eng.dlog_kernel(z), _basis_dlog(eng, z))
        assert np.array_equal(eng.metric_batch(z), _basis_metric(eng, z))

    @pytest.mark.parametrize("domain", [dom.disc(), dom.ball(2), dom.ball(3),
                                        dom.polydisc(2)],
                             ids=["disc", "ball2", "ball3", "polydisc2"])
    def test_closed_batch_equals_the_closed_forms(self, domain):
        eng = engine_for(domain)
        rng = np.random.default_rng(5)
        d = domain.dim
        u = rng.normal(size=(200, d)) + 1j * rng.normal(size=(200, d))
        if domain.kind == "ball":
            u *= rng.uniform(0, 0.98, (200, 1)) \
                / np.linalg.norm(u, axis=1)[:, None]
        else:
            u *= rng.uniform(0, 0.98, (200, d)) / np.abs(u)
        for z in (u[:1], u[:2], u):
            assert np.array_equal(eng._closed_batch(z, 0),
                                  eng._closed_form(z, z).real)
            assert np.array_equal(eng._closed_batch(z, 1),
                                  _closed_form_dlog(eng, z))
            assert np.array_equal(eng._closed_batch(z, 2),
                                  _closed_form_metric(eng, z))
            assert np.array_equal(eng.metric_batch(z),
                                  _closed_form_metric(eng, z))


class TestSharedPool:
    """One lazily created pool serves every split of work."""

    def test_nested_call_runs_inline_on_the_pool_thread(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        seen = {}

        def inner(p):
            seen.setdefault(p[0], set()).add(threading.current_thread())

        def outer(i):
            # two outer tasks on a 2-worker pool: a nested wait on the
            # pool would deadlock
            list(kernels._pool_map(inner, [(i, j) for j in range(4)]))

        caller = threading.Thread(
            target=lambda: list(kernels._pool_map(outer, [0, 1])),
            daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert sorted(seen) == [0, 1]
        for threads in seen.values():
            (thread,) = threads
            assert thread.name.startswith(kernels._POOL_NAME)

    def test_first_use_from_many_threads_makes_one_pool(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        monkeypatch.setattr(kernels, "_pool", None)
        pools = []

        def use():
            list(kernels._pool_map(lambda p: None, [0, 1]))
            pools.append(kernels._pool)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=use) for _ in range(8)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(pools) == 8 and len({id(p) for p in pools}) == 1
        assert len(pools[0]._threads) <= 2

    def test_task_error_propagates(self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)

        def task(p):
            if p == 2:
                raise KernelError("task 2 failed")

        with pytest.raises(KernelError, match="task 2 failed"):
            list(kernels._pool_map(task, list(range(4))))

    def test_one_part_or_worker_runs_inline(self, monkeypatch):
        ran_in = []
        for workers, parts in ((2, [0]), (1, [0, 1, 2])):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            list(kernels._pool_map(
                lambda p: ran_in.append(threading.current_thread()), parts))
        assert ran_in == [threading.main_thread()] * 4

    def test_map_keeps_part_order_when_tasks_finish_out_of_order(
            self, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        one_done = threading.Event()
        finished = []

        def task(p):
            # part 0 waits until part 1 has finished
            if p == 0:
                assert one_done.wait(timeout=60)
            finished.append(p)
            one_done.set()
            return (p, threading.current_thread().name)

        got = list(kernels._pool_map(task, [0, 1]))
        assert finished == [1, 0]
        assert [p for p, _ in got] == [0, 1]
        assert all(name.startswith(kernels._POOL_NAME) for _, name in got)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_map_raises_a_later_error_when_reached(self, workers,
                                                   monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", workers)

        def task(p):
            if p == 2:
                raise KernelError("task 2 failed")
            return p

        results = kernels._pool_map(task, range(4))
        assert next(results) == 0 and next(results) == 1
        with pytest.raises(KernelError, match="task 2 failed"):
            next(results)

    def test_map_runs_inline_with_one_part_or_worker_and_on_the_pool(
            self, monkeypatch):
        def where(p):
            return threading.current_thread()

        for workers, parts in ((2, [0]), (1, [0, 1, 2])):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            assert list(kernels._pool_map(where, parts)) \
                == [threading.main_thread()] * len(parts)
        monkeypatch.setattr(kernels, "_WORKERS", 2)

        def outer(i):
            # a nested wait on the 2-worker pool, busy with both outer
            # tasks, would deadlock
            return threading.current_thread(), \
                list(kernels._pool_map(where, range(4)))

        for thread, inner in kernels._pool_map(outer, [0, 1]):
            assert thread.name.startswith(kernels._POOL_NAME)
            assert inner == [thread] * 4

    def test_import_leaves_the_pool_uncreated(self):
        code = ("import threading, bergmanlab, bergmanlab.kernels as k; "
                "assert k._pool is None; "
                "assert not [t for t in threading.enumerate() "
                "if t.name.startswith(k._POOL_NAME)]")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("blas,workers", [("1", "cores"), ("2", "1")])
    def test_pool_only_beside_one_blas_thread(self, blas, workers):
        code = ("import bergmanlab.kernels as k; "
                "print(k._WORKERS, k._cores())")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src,
                                       OPENBLAS_NUM_THREADS=blas),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got, cores = proc.stdout.split()
        assert got == (cores if workers == "cores" else workers)

    def test_forked_child_makes_its_own_pool(self):
        # the child inherits the pool object, here with two idle
        # threads, but not the threads: its tasks would wait forever
        code = ("import os, threading, bergmanlab.kernels as k; "
                "k._WORKERS = 2; both = threading.Barrier(2, timeout=60); "
                "list(k._pool_map(lambda p: both.wait(), [0, 1])); "
                "pid = os.fork()\n"
                "if pid == 0:\n"
                "    import signal; signal.alarm(60)\n"
                "    out = []; list(k._pool_map(out.append, [0, 1])); "
                "os._exit(0 if sorted(out) == [0, 1] else 1)\n"
                "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) "
                "== 0")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("n,parts", [(0, 2), (1, 2), (3, 2), (4, 2),
                                         (5, 3), (28, 2), (100, 7)])
    def test_blocks_are_near_equal_with_no_single_row(self, n, parts):
        # a row width at which n rows hold `parts` chunks' worth of values
        width = parts * kernels._CHUNK_VALUES // max(n, 1)
        blocks = kernels._row_chunks(n, width)
        sizes = [b.stop - b.start for b in blocks]
        assert sum(sizes) == n and len(blocks) <= parts
        assert [b.start for b in blocks] \
            == [sum(sizes[:i]) for i in range(len(sizes))]
        if n > 1:
            assert min(sizes) >= 2 and max(sizes) - min(sizes) <= 1
            assert len(blocks) == min(parts, n // 2)
