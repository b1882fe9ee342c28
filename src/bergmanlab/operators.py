"""Truncated Bergman projections, Hankel and multiplication operators.

All inner products are grid inner products against the same quadrature
grid used to orthonormalize the basis, which makes the truncated
projection idempotent by construction.  Hankel and multiplication
truncations and the weak-null probe each reduce to the Gram of a set of
columns, with the projection subtracted explicitly.

With a monomial (Reinhardt) basis on a grid that keeps its torus layout
(product-polar), that Gram is summed one orbit at a time by discrete
Parseval (_orbit_gram): one angular FFT of the symbol per orbit, column
spectra as cyclic shifts of it, and the projection read off the basis
modes, at O(nodes * columns^2) with no basis evaluation at the nodes.
Any other grid or basis takes _residual_gram, chunked over nodes so
large grids never materialize full Vandermonde matrices, at
O(nodes * k * (k + columns)) for k basis functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import QuadratureGrid, central_dbar
from .kernels import KernelEngine, OrthonormalBasis

_DBAR_STEP = 1e-5         # central-difference step of dbar_values
_CONSISTENCY_STEP = 1e-4  # and of the dbar_consistency reference


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
        return central_dbar(self, z, _DBAR_STEP)

    def dbar_consistency(self, z):
        """Max abs gap between analytic dbar and central differences."""
        if self.dbar is None:
            return 0.0
        gap = central_dbar(self, z, _CONSISTENCY_STEP) - self.dbar_values(z)
        return float(np.max(np.abs(gap)))


@dataclass(frozen=True)
class OperatorTruncation:
    kind: str  # Hankel | Multiplication
    symbol: SymbolFn
    basis: OrthonormalBasis
    source_size: int
    singular_values: np.ndarray  # descending, nonnegative


_CHUNK_BUDGET = 4_000_000  # array entries per chunk of nodes


def _residual_gram(basis, grid, columns, width, project):
    """Gram of `width` columns v_j, or of their residuals v_j - P v_j
    with project.

    columns(nodes, E) gives the column values on a chunk of nodes from
    E = basis.evaluate(nodes), which each pass computes once.  The
    projection needs A = <v_j, phi_i> from a first grid pass; the Gram
    is then assembled from the explicit residual M - E A in a second
    pass, since the algebraic shortcut G - A^H A loses half the working
    digits to cancellation when the residual is nearly zero.
    """
    step = max(1, _CHUNK_BUDGET // (len(basis) + width))

    def chunks():
        for lo in range(0, len(grid), step):
            nodes = grid.nodes[lo:lo + step]
            E = basis.evaluate(nodes)
            yield grid.weights[lo:lo + step, None], E, columns(nodes, E)

    if project:
        A = sum((E.conj() * w).T @ M for w, E, M in chunks())
    G = np.zeros((width, width), dtype=complex)
    for w, E, M in chunks():
        if project:
            M = M - E @ A
        G += (M.conj() * w).T @ M
    return 0.5 * (G + G.conj().T)


def _on_orbits(basis, grid):
    """A monomial basis on a grid with a torus layout: each basis
    function is then one angular mode on every orbit."""
    return grid.n_theta > 0 and basis.monomial


def _angular_dft(grid, values):
    """DFT over the torus angles of values at grid.orbit_nodes(...),
    shape (n_orbits * T, ...) -> (n_orbits, T, ...), T = n_theta ** d;
    mode m is the C-order flat index of m in Z_{n_theta}^d."""
    d = grid.moduli.shape[1]
    F = np.fft.fftn(values.reshape((-1,) + (grid.n_theta,) * d
                                   + values.shape[1:]),
                    axes=tuple(range(1, d + 1)))
    return F.reshape((len(F), -1) + values.shape[1:])


def _orbit_gram(basis, grid, spectra, width, project):
    """_residual_gram by discrete Parseval over the torus orbits of a
    product-polar grid, for a monomial basis.

    On orbit rho, phi_k is the angular mode alphas[k] mod n_theta with
    amplitude S[rho, k] = phi_k(moduli[rho]).  spectra(lo, hi, S, at)
    gives the angular DFTs of the columns on orbits lo..hi at the modes
    `at`, (c, T, width) for all T modes.  A = <v_j, phi_k> is read off
    the basis modes in a first pass; the second subtracts the projection
    on those modes (modes that alias add up) and sums the Gram
    sum_rho (W_rho / T) R^H R of the explicit residual R.
    """
    n = grid.n_theta
    shape = (n,) * grid.moduli.shape[1]
    T = n ** len(shape)
    modes = np.ravel_multi_index(tuple((basis.alphas % n).T), shape)
    step = max(1, _CHUNK_BUDGET // (T * width))

    def chunks(at):
        for lo in range(0, len(grid.moduli), step):
            S = basis.evaluate(grid.moduli[lo:lo + step])
            yield (grid.orbit_weights[lo:lo + step], S,
                   spectra(lo, lo + step, S, at))

    if project:
        A = sum(np.einsum("rk,rkj->kj", S.conj() * w[:, None], V)
                for w, S, V in chunks(modes))
    G = np.zeros((width, width), dtype=complex)
    for w, S, V in chunks(slice(None)):
        if project:
            np.subtract.at(V, (slice(None), modes),
                           T * S[:, :, None] * A[None])
        V = V.reshape(-1, width)
        G += (V.conj() * np.repeat(w / T, T)[:, None]).T @ V
    return 0.5 * (G + G.conj().T)


def _mode_shifts(alphas, n):
    """(T, len(alphas)): the flat index of (t - alpha) mod n for each
    flat mode t, so phi_hat[shift[:, j]] is the spectrum of
    phi exp(i alpha_j . theta) on an orbit."""
    shape = (n,) * alphas.shape[1]
    t = np.indices(shape).reshape(len(shape), -1)
    return np.ravel_multi_index(
        tuple((t[:, :, None] - alphas.T[:, None, :]) % n), shape)


def _singular_values(G):
    lam = np.linalg.eigvalsh(G)
    if lam[0] < -1e-8 * max(1.0, abs(lam[-1])):
        raise OperatorError(
            f"column Gram has a significantly negative eigenvalue "
            f"({lam[0]:.3e}); quadrature inconsistent")
    return np.sqrt(np.clip(lam, 0.0, None))[::-1]


def _truncation(kind, symbol, basis, grid, guard, per_variable):
    cols = basis.graded_columns(basis.degree - guard, per_variable) \
        if guard > 0 else np.arange(len(basis))
    if len(cols) == 0:
        raise OperatorError(f"guard {guard} leaves no source column at "
                            f"degree {basis.degree}")
    project = kind == "Hankel"
    if _on_orbits(basis, grid):
        phi_hat = _angular_dft(grid, symbol(grid.orbit_nodes()))
        shift = _mode_shifts(basis.alphas[cols], grid.n_theta)
        G = _orbit_gram(basis, grid,
                        lambda lo, hi, S, at: phi_hat[lo:hi].take(
                            shift[at], axis=1) * S[:, None, cols],
                        len(cols), project)
    else:
        G = _residual_gram(
            basis, grid, lambda nodes, E: symbol(nodes)[:, None] * E[:, cols],
            len(cols), project)
    return OperatorTruncation(kind=kind, symbol=symbol, basis=basis,
                              source_size=len(cols),
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
    return _truncation("Hankel", symbol, basis, grid, guard, per_variable)


def mult_matrix(symbol: SymbolFn, basis: OrthonormalBasis,
                grid: QuadratureGrid, guard=0,
                per_variable=False) -> OperatorTruncation:
    """Truncation of M_phi f = phi f, in the grid norm."""
    return _truncation("Multiplication", symbol, basis, grid, guard,
                       per_variable)


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
    roots = np.sqrt(engine.kernel_diag(centers))

    def phi_sections(nodes, E=None):
        B = np.reshape(engine.kernel(nodes, centers),
                       (len(nodes), len(centers)))
        return symbol(nodes)[:, None] * (B / roots)

    if _on_orbits(basis, grid):
        G = _orbit_gram(basis, grid,
                        lambda lo, hi, S, at: _angular_dft(
                            grid, phi_sections(grid.orbit_nodes(lo, hi)))[
                                :, at],
                        len(centers), project=True)
    else:
        G = _residual_gram(basis, grid, phi_sections, len(centers),
                           project=True)
    return np.sqrt(np.diag(G).real)


@dataclass(frozen=True)
class CompactnessIndicator:
    degrees: tuple
    counts: tuple
    threshold_ratio: float
    sigma0: float
    compact: bool
    probe_values: tuple = field(default=())


def compactness_indicator(build_truncation, degrees, threshold_ratio=0.5,
                          probe_values=None,
                          zero_tol=1e-8) -> CompactnessIndicator:
    """Tail dichotomy on truncations: the count of singular values above
    threshold_ratio * sigma_0 stays bounded for compact operators and
    grows with the truncation degree otherwise.

    build_truncation maps a degree to an OperatorTruncation.
    """
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
    return CompactnessIndicator(
        degrees=tuple(degrees), counts=tuple(counts),
        threshold_ratio=threshold_ratio, sigma0=sigma0, compact=compact,
        probe_values=tuple(probe_values) if probe_values is not None else ())
