"""Bergman kernels, metrics, and normalized kernel sections.

Closed forms are used on the ball and the polydisc (the disc is the
polydisc in C^1); on other domains the kernel is approximated by
orthonormalizing monomials against a quadrature grid.  The metric is
the complex Hessian (Levi form) of log B(z, z) and the volume density
is its determinant, so that the metric volume form is
``volume_density * dmu``.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import DomainSpec, QuadratureGrid, boundary_gap, monomial_norm2

_CUTOFF = 1e-10  # relative Gram eigenvalue below which a direction drops
_CHUNK_VALUES = 125_000  # basis values per row chunk of a numerical batch


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_threads():
    """The thread count OpenBLAS reads from the environment:
    OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, otherwise every core."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n
    return _cores()


# the pool runs only beside a one-thread BLAS: a threaded BLAS may round
# a row block of a product differently from the whole product
_WORKERS = _cores() if _blas_threads() == 1 else 1


def _row_chunks(n, width):
    """Near-equal row slices of about _CHUNK_VALUES values at width values
    per row, none with one row unless n == 1: numpy sends a one-row product
    to gemv, which rounds differently from gemm, and with two or more rows
    each row's value does not depend on the split."""
    k = max(1, min(-(-n * width // _CHUNK_VALUES), n // 2))
    bounds = [n * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo]


_POOL_NAME = "bergmanlab-pool"
_pool = None
_pool_lock = threading.Lock()


def _pool_map(fn, parts):
    """fn(p) for each p in parts, as an iterator in part order, run on
    one process-wide pool of _WORKERS threads (numpy and BLAS release
    the GIL) created on first use; a task's error is raised when reached.
    Inline and lazy with fewer than two parts or workers, and inside a
    pool task, where a nested wait on the busy pool would deadlock."""
    global _pool
    if len(parts) < 2 or _WORKERS < 2 \
            or threading.current_thread().name.startswith(_POOL_NAME):
        return map(fn, parts)
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS,
                                       thread_name_prefix=_POOL_NAME)
    return _pool.map(fn, parts)


def _forget_pool():
    # a forked child holds the pool object but none of its threads
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


class KernelError(RuntimeError):
    pass


def multi_indices(dim, degree, per_variable=False):
    """All monomial exponents with total degree <= degree (or each
    exponent <= degree when per_variable), in lexicographic order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    idx = [()]
    for _ in range(dim):
        idx = [t + (k,) for t in idx for k in range(degree + 1)]
    if not per_variable:
        idx = [t for t in idx if sum(t) <= degree]
    # degree-graded order, so triangular orthonormalization is graded too
    return np.array(sorted(idx, key=lambda t: (sum(t), t)), dtype=int)


def monomial_matrix(z, alphas):
    """Vandermonde-style matrix M[i, k] = z_i ^ alphas[k]."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    n, d = z.shape
    powmax = int(alphas.max()) if len(alphas) else 0
    pows = np.empty((d, powmax + 1, n), dtype=complex)
    for j in range(d):
        pows[j, 0] = 1.0
        for p in range(1, powmax + 1):
            pows[j, p] = pows[j, p - 1] * z[:, j]
    M = np.ones((n, len(alphas)), dtype=complex)
    for j in range(d):
        M *= pows[j, alphas[:, j]].T
    return M


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormalized monomial span of A^2(Omega), truncated at a degree."""

    domain: DomainSpec
    alphas: np.ndarray  # (n_mono, d)
    # (n_mono, n_kept), or (n_mono,) for a monomial basis c_k z^alpha_k
    coeffs: np.ndarray
    grid: QuadratureGrid | None
    degree: int
    smallest_retained: float
    dropped: int

    @property
    def monomial(self):
        """True when phi_k = coeffs[k] z^alphas[k] (a Reinhardt basis)."""
        return self.coeffs.ndim == 1

    def __len__(self):
        return self.coeffs.shape[-1]

    def _combine(self, M):
        # the column scaling equals M @ diag(coeffs) bit for bit
        return M * self.coeffs if self.monomial else M @ self.coeffs

    def evaluate(self, z):
        """phi_k(z) for all retained functions; (n_points, n_kept)."""
        return self._combine(monomial_matrix(z, self.alphas))

    def evaluate_derivative(self, z, j):
        """(d phi_k / d z_j)(z), exact monomial differentiation."""
        return self._derivative(monomial_matrix(z, self.alphas), j)

    def _derivative(self, M, j):  # M = monomial_matrix(z, alphas)
        # exponent sets are downward-closed: z^(alpha - e_j) is a column
        return self._combine(M[:, self._lowered[j]] * self.alphas[:, j])

    @cached_property
    def _lowered(self):  # per j, alpha - e_j's column (alpha's if alpha_j = 0)
        at = {a: k for k, a in enumerate(map(tuple, self.alphas.tolist()))}
        return np.array([[at[a[:j] + (max(a[j] - 1, 0),) + a[j + 1:]]
                          for a in at] for j in range(self.alphas.shape[1])])

    def graded_columns(self, degree, per_variable=False):
        """Indices of the basis functions built only from monomials of
        degree <= degree (each exponent <= degree with per_variable);
        for degree-graded coefficients they span that truncation."""
        if per_variable:
            keep = np.all(self.alphas <= degree, axis=1)
        else:
            keep = self.alphas.sum(axis=1) <= degree
        if self.monomial:
            return np.flatnonzero(keep)
        return np.flatnonzero(
            np.all(np.isclose(self.coeffs[~keep], 0.0), axis=0))


def orthonormalize(dom: DomainSpec, grid: QuadratureGrid, degree: int,
                   per_variable=False) -> OrthonormalBasis:
    """Gram-orthonormalize monomials against grid quadrature.

    Directions whose Gram eigenvalue falls below _CUTOFF * max are
    dropped and reported in the conditioning fields.
    """
    alphas = multi_indices(dom.dim, degree, per_variable)
    n_mono = len(alphas)
    G = np.zeros((n_mono, n_mono), dtype=complex)
    step = max(1, 4_000_000 // n_mono)
    for lo in range(0, len(grid), step):
        V = monomial_matrix(grid.nodes[lo:lo + step], alphas)
        G += (V.conj().T * grid.weights[lo:lo + step]) @ V
    G = 0.5 * (G + G.conj().T)
    try:
        # graded (triangular) orthonormalization in degree order
        L = np.linalg.cholesky(G)
        C = np.linalg.inv(L).conj().T
        small = float(np.min(np.abs(np.diag(L))) ** 2)
        if small < _CUTOFF * float(np.max(np.abs(np.diag(L))) ** 2):
            raise np.linalg.LinAlgError
        return OrthonormalBasis(domain=dom, alphas=alphas, coeffs=C,
                                grid=grid, degree=degree,
                                smallest_retained=small, dropped=0)
    except np.linalg.LinAlgError:
        pass
    lam, U = np.linalg.eigh(G)
    keep = lam > _CUTOFF * lam[-1]
    if not np.any(keep):
        raise KernelError("Gram matrix numerically zero")
    C = U[:, keep] / np.sqrt(lam[keep])
    return OrthonormalBasis(domain=dom, alphas=alphas, coeffs=C, grid=grid,
                            degree=degree,
                            smallest_retained=float(lam[keep][0]),
                            dropped=int(np.sum(~keep)))


def reinhardt_basis(dom: DomainSpec, degree: int,
                    per_variable=False) -> OrthonormalBasis:
    """Exact orthonormal monomial basis on Reinhardt model domains,
    using closed-form monomial norms (monomials are orthogonal there)."""
    alphas = multi_indices(dom.dim, degree, per_variable)
    norms = np.array([monomial_norm2(dom, a) for a in alphas])
    return OrthonormalBasis(domain=dom, alphas=alphas,
                            coeffs=1.0 / np.sqrt(norms), grid=None,
                            degree=degree,
                            smallest_retained=float(norms.min()), dropped=0)


class KernelEngine:
    """Evaluator for B_Omega, the Bergman metric, and kernel sections.

    mode 'closed-form' on ball/polydisc, 'numerical' (orthonormal
    basis) elsewhere.
    """

    def __init__(self, dom: DomainSpec, basis: OrthonormalBasis = None):
        self.domain = dom
        self.basis = basis
        if basis is not None:
            self.mode = "numerical"
        elif dom.homogeneous:
            self.mode = "closed-form"
        else:
            raise KernelError(
                f"{dom.kind} domains need an orthonormal basis")

    # -- kernel -------------------------------------------------------

    def kernel(self, z, w):
        """B(z, w); broadcasts when z or w is a batch (n, d)."""
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        squeeze = z.ndim == 1 and w.ndim == 1
        z = np.atleast_2d(z)
        w = np.atleast_2d(w)
        if self.mode == "numerical":
            val = np.einsum("ik,jk->ij", self.basis.evaluate(z),
                            self.basis.evaluate(w).conj())
        else:
            val = self._closed_form(z[:, None, :], w[None, :, :])
        if squeeze:
            return complex(val[0, 0])
        if val.shape[0] == 1:
            return val[0]
        if val.shape[1] == 1:
            return val[:, 0]
        return val

    def _closed_form(self, z, w):
        d = self.domain.dim
        if self.domain.kind == "ball":
            den = 1.0 - np.sum(z * w.conj(), axis=-1)
            self._check_denominator(den)
            return math.factorial(d) / (math.pi ** d * den ** (d + 1))
        den = 1.0 - z * w.conj()
        self._check_denominator(den)
        return np.prod(1.0 / (math.pi * den ** 2), axis=-1)

    @staticmethod
    def _check_denominator(den):
        if np.any(np.abs(den) < 1e-14):
            raise KernelError("kernel evaluated at a singular pair")

    # -- batches: B(z, z), d log B and the metric ----------------------

    def kernel_diag(self, z):
        """B(z, z) as a real array over a batch of points."""
        return self._batch(z, 0)

    def dlog_kernel(self, z):
        """Holomorphic gradient (d log B(z,z) / d z_j), batched (n, d)."""
        return self._batch(z, 1)

    def metric_batch(self, z):
        """(n, d, d) Hermitian matrices; vectorized."""
        return self._batch(z, 2)

    def metric(self, zeta):
        """The (d, d) Hermitian positive definite metric at one point."""
        zeta = np.asarray(zeta, dtype=complex).reshape(-1)
        if self.mode == "numerical":
            res = self.basis.grid.resolution if self.basis.grid else 1e-3
            guard = max(1e-4, res / 10.0)
            gap = boundary_gap(self.domain, zeta)
            if gap < 10.0 * guard:
                raise KernelError(
                    f"point too close to the boundary (gap {gap:.3g}, "
                    f"scale {guard:.3g}); the truncated basis is not "
                    f"trustworthy there")
        g = self.metric_batch(zeta[None, :])[0]
        lam = np.linalg.eigvalsh(g)
        if lam[0] <= 0:
            raise KernelError(
                f"metric not positive definite (smallest eigenvalue "
                f"{lam[0]:.3e})")
        return g

    def volume_density_batch(self, z):
        return np.linalg.det(self.metric_batch(z)).real

    def _batch(self, z, order):
        """B(z, z) (order 0), d log B (order 1) or the Levi form of log B
        (order 2) over a batch of points."""
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        if self.basis is None:
            return self._closed_batch(z, order)
        return self._basis_batch(z, order)

    def _closed_batch(self, z, order):
        if order == 0:
            return self._closed_form(z, z).real
        n, d = z.shape
        if self.domain.kind == "ball":
            s = 1.0 - np.sum(np.abs(z) ** 2, axis=1)
            if order == 1:
                return (d + 1) * z.conj() / s[:, None]
            g = (d + 1) * (s[:, None, None] * np.eye(d)[None]
                           + z.conj()[:, :, None] * z[:, None, :])
            return g / (s ** 2)[:, None, None]
        s = 1.0 - np.abs(z) ** 2
        if order == 1:
            return 2.0 * z.conj() / s
        g = np.zeros((n, d, d), dtype=complex)
        g[:, range(d), range(d)] = 2.0 / s ** 2
        return g

    def _basis_batch(self, z, order):
        """One pass over the row chunks of z on the pool, from exact basis
        derivatives: B = sum |phi|^2, v_j = sum (d_j phi) conj(phi),
        T_jk = sum (d_j phi)(d_k phi)^bar; d_j log B = v_j / B and
        g = T/B - v v^H / B^2, symmetrized."""
        n, d = z.shape
        nb = len(self.basis.alphas)
        out = np.empty((n,) + (d,) * order, dtype=complex if order else float)

        def work(s):
            M = monomial_matrix(z[s], self.basis.alphas)
            E = self.basis._combine(M)
            B = np.sum(np.abs(E) ** 2, axis=1)
            if order == 0:
                out[s] = B
                return
            F = np.stack([self.basis._derivative(M, j)
                          for j in range(d)], axis=1)  # (m, d, nb)
            v = np.einsum("mjb,mb->mj", F, E.conj())
            if order == 1:
                out[s] = v / B[:, None]
                return
            T = np.einsum("mjb,mkb->mjk", F, F.conj())
            out[s] = T / B[:, None, None] - v[:, :, None] \
                * v.conj()[:, None, :] / (B ** 2)[:, None, None]

        list(_pool_map(work, _row_chunks(n, (d + 1) * nb if order else nb)))
        if order == 2:
            return 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))
        return out

    # -- normalized kernel sections -----------------------------------

    def s_section(self, zeta, z):
        """s_zeta(z) = B(z, zeta) / sqrt(B(zeta, zeta)); unit L^2 norm.
        A batch of centres (m, d) gives a (len(z), m) array."""
        zeta = np.asarray(zeta, dtype=complex)
        z, centres = np.atleast_2d(z), np.atleast_2d(zeta)
        s = np.reshape(self.kernel(z, centres), (len(z), len(centres))) \
            / np.sqrt(self.kernel_diag(centres))
        return s if zeta.ndim > 1 else s[:, 0]


def engine_for(dom: DomainSpec, grid: QuadratureGrid = None, degree=None,
               exact=False) -> KernelEngine:
    """Convenience constructor: closed form when available, otherwise a
    numerical engine (exact Reinhardt basis or grid orthonormalization)."""
    if degree is None and dom.homogeneous:
        return KernelEngine(dom)
    if exact or grid is None:
        basis = reinhardt_basis(dom, degree)
    else:
        basis = orthonormalize(dom, grid, degree)
    return KernelEngine(dom, basis=basis)
