"""Truncated Bergman projections, Hankel and multiplication operators.

Inner products are grid sums: the truncated projection is idempotent
only on a grid that orthonormalized the basis or is exact for it, not
for the CLI's Reinhardt basis on tensor-midpoint grids (ROADMAP item 1).
Hankel and multiplication truncations and the weak-null probe each
reduce to column Grams with the projection subtracted (_residual_gram).

That Gram is summed over the grid's torus orbits by discrete Parseval,
chunked over orbits so large grids never materialize full Vandermonde
matrices.  With a monomial (Reinhardt) basis on a product-polar grid an
orbit is n_theta ** d nodes, each basis function is one angular mode on
it, and a column phi phi_j has the symbol's spectrum shifted by phi_j's
mode: O(nodes * columns^2), with the basis evaluated at one node per
orbit.  Any other grid or basis has orbits of one node, where Parseval
is the identity and the sum is the node sum, at
O(nodes * k * (k + columns)) for k basis functions.

Each chunk of orbits is one task on kernels' shared pool, which works
beside one BLAS thread: the task builds the chunk's rows and returns its
share of the read-off or of the Gram, whole, and the caller adds the
shares in chunk order as they arrive.  Chunk bounds depend on the budget
alone, so every value is the same bit for bit at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import QuadratureGrid, central_dbar, contains
from .kernels import KernelEngine, OrthonormalBasis, _pool_map


class OperatorError(RuntimeError):
    pass


@dataclass(frozen=True)
class SymbolFn:
    """A symbol phi: Omega -> C with optional analytic dbar data.

    smoothness: 'L2', 'C0' (continuous up to the closure), or 'C1'.
    dbar, when present, maps (n, d) points to the (n, d) components of
    (d phi / d zbar_j).
    """

    fn: object
    smoothness: str = "L2"
    dbar: object = None
    label: str = ""

    def __call__(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        out = np.asarray(self.fn(z), dtype=complex)
        if not np.all(np.isfinite(out)):
            raise OperatorError(f"symbol {self.label!r} not finite on grid")
        return out

    def dbar_values(self, z):
        """Analytic dbar when available, else central differences."""
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        if self.dbar is not None:
            return np.asarray(self.dbar(z), dtype=complex)
        if self.smoothness != "C1":
            raise OperatorError(
                "dbar requested for a symbol not tagged C1")
        return central_dbar(self, z)

    def dbar_consistency(self, z):
        """Max abs gap between analytic dbar and central differences."""
        if self.dbar is None:
            return 0.0
        gap = central_dbar(self, z) - self.dbar_values(z)
        return float(np.max(np.abs(gap)))


@dataclass(frozen=True)
class OperatorTruncation:
    source_size: int
    singular_values: np.ndarray  # descending, nonnegative


_CHUNK_BUDGET = 250_000  # array entries per chunk of orbits


def _orbit_size(basis, grid):
    """Angles per coordinate of an orbit: the grid's n_theta for a
    monomial basis, each of whose functions is one angular mode on every
    orbit; else 1, so that each node is an orbit and every function
    sits at mode 0."""
    return grid.n_theta if basis.monomial else 1


def _angular_dft(values, n, d):
    """DFT over the torus angles of values on whole orbits,
    (orbits * T, ...) -> (orbits, T, ...) with T = n ** d; mode m is
    the C-order flat index of m in Z_n^d.  An orbit of one node is its
    own spectrum."""
    V = values.reshape((-1,) + (n,) * d + values.shape[1:])
    if n > 1:
        V = np.fft.fftn(V, axes=tuple(range(1, d + 1)))
    return V.reshape((len(V), n ** d) + values.shape[1:])


def _mode_shifts(alphas, n):
    """(T, len(alphas)): the flat index of (t - alpha) mod n for each
    flat mode t, so phi_hat[:, shift[:, j]] is the spectrum of
    phi exp(i alpha_j . theta) on an orbit.  At n = 1 it is one zero
    shift, (1, 1), that broadcasts over the columns."""
    if n == 1:
        return np.zeros((1, 1), dtype=int)
    shape = (n,) * alphas.shape[1]
    t = np.indices(shape).reshape(len(shape), -1)
    return np.ravel_multi_index(
        tuple((t[:, :, None] - alphas.T[:, None, :]) % n), shape)


def _residual_gram(basis, grid, n, columns, width, project):
    """Gram of `width` columns v_j, or of their residuals v_j - P v_j
    with project, summed over torus orbits of T = n ** d consecutive
    grid nodes.

    On orbit rho every node weighs w_rho, and phi_k is the angular mode
    modes[k] with amplitude S[rho, k], its value at the orbit's first
    node.  columns(orbits, nodes, S, at) gives the angular DFTs of the
    columns on a chunk of orbits (a slice) with those nodes, at the
    modes `at`: (c, len(at), width), or (c, T, width) for slice(None).
    By discrete Parseval, T A = sum_rho T w_rho S^H V at each function's
    mode is read off in a first pass, one product per run of functions
    on one mode.  The second pass subtracts the projection S (T A) and
    sums the Gram sum_rho (w_rho / T) R^H R of the explicit residual R,
    since the algebraic shortcut G - A^H A loses half the working digits
    to cancellation when the residual is nearly zero.  At n = 1 these
    are A = E^H w M and R = M - E A on the nodes.
    """
    d = grid.domain.dim
    T = n ** d
    k = len(basis)
    # a dense basis only meets n = 1, where every mode is 0
    modes = np.ravel_multi_index(tuple((basis.alphas[:k] % n).T), (n,) * d)
    starts = np.flatnonzero(np.diff(modes, prepend=-1))
    runs = [slice(a, b) for a, b in zip(starts, np.append(starts[1:], k))]
    step = max(1, _CHUNK_BUDGET // (k + T * width))

    def chunk(lo, at):
        """w, S and the column spectra V at `at` on the orbits from lo."""
        nodes = slice(lo * T, (lo + step) * T)
        S = basis.evaluate(grid.nodes[nodes][::T])
        return (grid.weights[nodes][::T], S,
                columns(slice(lo, lo + step), grid.nodes[nodes], S, at))

    def read_off(lo):
        w, S, V = chunk(lo, modes[starts])
        return np.concatenate([(S[:, r].conj() * (T * w)[:, None]).T
                               @ V[:, g] for g, r in enumerate(runs)])

    def gram(lo):
        w, S, V = chunk(lo, slice(None))
        if project:
            for r in runs:
                V[:, modes[r.start]] -= S[:, r] @ TA[r]
        V = V.reshape(-1, width)
        return (V.conj() * np.repeat(w / T, T)[:, None]).T @ V

    # one pool task per chunk, its share added in chunk order as it
    # arrives, so at most one chunk per worker is alive at once
    orbits = range(0, len(grid) // T, step)
    if project:
        TA = sum(_pool_map(read_off, orbits))
    G = sum(_pool_map(gram, orbits))
    return 0.5 * (G + G.conj().T)


def _singular_values(G):
    lam = np.linalg.eigvalsh(G)
    if lam[0] < -1e-8 * max(1.0, abs(lam[-1])):
        raise OperatorError(
            f"column Gram has a significantly negative eigenvalue "
            f"({lam[0]:.3e}); quadrature inconsistent")
    return np.sqrt(np.clip(lam, 0.0, None))[::-1]


def _truncation(symbol, basis, grid, guard, per_variable, project):
    if guard < 0:
        raise OperatorError(f"guard must be non-negative, not {guard}")
    cols = basis.graded_columns(basis.degree - guard, per_variable) \
        if guard > 0 else np.arange(len(basis))
    if len(cols) == 0:
        raise OperatorError(f"guard {guard} leaves no source column at "
                            f"degree {basis.degree}")
    n = _orbit_size(basis, grid)
    # the column phi phi_j has the spectrum of phi shifted by phi_j's mode
    phi_hat = _angular_dft(symbol(grid.nodes), n, grid.domain.dim)
    shift = _mode_shifts(basis.alphas[cols], n)
    G = _residual_gram(
        basis, grid, n,
        lambda orbits, nodes, S, at: phi_hat[orbits].take(
            shift[at], axis=1) * S[:, None, cols],
        len(cols), project)
    return OperatorTruncation(source_size=len(cols),
                              singular_values=_singular_values(G))


def hankel_matrix(symbol: SymbolFn, basis: OrthonormalBasis,
                  grid: QuadratureGrid, guard=5,
                  per_variable=False) -> OperatorTruncation:
    """Truncation of H_phi f = phi f - P(phi f).

    The projection uses the full basis (degree N); source columns are
    the degree N - guard graded columns so truncation-boundary artifacts
    are quantified rather than hidden.  Pass guard=0 for symbols whose
    multiplication lowers holomorphic degree (e.g. conj-monomials),
    where no truncation bias exists.
    """
    return _truncation(symbol, basis, grid, guard, per_variable,
                       project=True)


def mult_matrix(symbol: SymbolFn, basis: OrthonormalBasis,
                grid: QuadratureGrid, guard=0,
                per_variable=False) -> OperatorTruncation:
    """Truncation of M_phi f = phi f, in the grid norm."""
    return _truncation(symbol, basis, grid, guard, per_variable,
                       project=False)


def weak_null_probe(symbol: SymbolFn, engine: KernelEngine,
                    basis: OrthonormalBasis, grid: QuadratureGrid,
                    centers) -> np.ndarray:
    """||H_phi s_zeta|| in the grid norm for each center zeta.

    Values trending to zero along zeta -> boundary are the compactness
    signature (kernel sections tend weakly to zero there).
    """
    centers = np.asarray(centers, dtype=complex)
    if len(centers) == 0:
        raise OperatorError("weak_null_probe needs at least one center")
    centers = centers.reshape(len(centers), -1)
    if not np.all(contains(grid.domain, centers)):
        raise OperatorError("probe center outside the domain")
    n = _orbit_size(basis, grid)
    G = _residual_gram(
        basis, grid, n,
        lambda orbits, nodes, S, at: _angular_dft(
            symbol(nodes)[:, None] * engine.s_section(centers, nodes), n,
            grid.domain.dim)[:, at],
        len(centers), project=True)
    return np.sqrt(np.diag(G).real)


@dataclass(frozen=True)
class CompactnessIndicator:
    degrees: tuple
    counts: tuple
    sigma0: float
    compact: bool


def compactness_indicator(build_truncation, degrees, threshold_ratio=0.5,
                          probe_values=None,
                          zero_tol=1e-8) -> CompactnessIndicator:
    """Tail dichotomy on truncations: the count of singular values above
    threshold_ratio * sigma_0 stays bounded for compact operators and
    grows with the truncation degree otherwise.

    build_truncation maps a degree to an OperatorTruncation.
    """
    if len(degrees) == 0:
        raise OperatorError("compactness_indicator needs at least one "
                            "degree")
    counts = []
    sigma0 = 0.0
    for N in degrees:
        trunc = build_truncation(N)
        sig = trunc.singular_values
        s0 = float(sig[0]) if len(sig) else 0.0
        sigma0 = max(sigma0, s0)
        if s0 < zero_tol:
            counts.append(0)
        else:
            counts.append(int(np.sum(sig > threshold_ratio * s0)))
    bounded = (max(counts) - min(counts)) <= 1
    probe_ok = True
    if probe_values is not None and sigma0 >= zero_tol:
        vals = np.asarray(probe_values, dtype=float)
        probe_ok = vals[-1] < 0.5 * max(vals[0], zero_tol)
    compact = bounded and (probe_ok or sigma0 < zero_tol)
    return CompactnessIndicator(degrees=tuple(degrees), counts=tuple(counts),
                                sigma0=sigma0, compact=compact)
