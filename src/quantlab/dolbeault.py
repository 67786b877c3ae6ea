"""Lattice Dolbeault operator on the unit torus with a uniform magnetic flux.

The M x M periodic grid carries unit-modulus link phases realizing total
flux 2*pi*N, i.e. flux per plaquette 2*pi*N/M^2.  The degree-0 -> degree-1
block is the forward covariant difference combination

    D_plus = (nabla_x + i nabla_y) / sqrt(2),

scaled so that the continuum limit of D_plus^* D_plus has magnetic bands at
{0, 2*pi*N, 4*pi*N, ...}; the degree-1 operator D_plus D_plus^* then has
its bottom band at 2*pi*N, the spectral gap above the N-dimensional kernel.
The flux orientation is fixed so the kernel consists of the N lowest-band
(theta-like) sections rather than being empty.

Two lattice facts shape the numerics:

* the forward-difference combination admits discrete holomorphic
  continuation, so the kernel singular values vanish up to a
  nonperturbative commensuration term ~ exp(-0.73 / flux_per_plaquette);
* on a square matrix dim ker D+ = dim ker D+^* , and the compensating
  degree-1 zero modes sit at the Brillouin-zone corner (doubler states with
  no continuum meaning), so spectral quantities are always read off the
  nonzero part of the spectrum.

Solver (magnetic translations, Zak 1964).  In the Landau gauge a unitary FFT
along k (momentum p) splits D_plus into g = gcd(N, M) cyclic bidiagonal
chains of length M^2/g, stepping (j, p) -> (j+1, p) and crossing the seam as
(M-1, p) -> (0, p-N), with off-diagonal b = M/sqrt(2) and diagonal
b (-1 + i (e^{i theta} - 1)), theta = 2 pi (p/M - N j/M^2).  A block subspace
iteration with one sparse LU of the shifted normal matrix B^* B + 1 finds the
lowest singular triplets of all chains; Rayleigh-Ritz is an SVD of B Q, so
singular values carry eps * sigma_max error like a dense SVD and every copy
of a repeated value is found.  sigma_max is the top of the same chains: with
each chain's columns in zig-zag order 0, L-1, 1, L-2, ... B^* B is a band of
width 2, and ``algebra._gram_top`` brackets its top eigenvalue to 1e-12
relative by banded Cholesky factorizations, starting from the bound
(max |diagonal| + b)^2 and raising ConvergenceError if the bracket stays
open.  At zero flux the doubler zero would land on the momentum grid
whenever 4 | M, so the fluxless operator is the exact spectral derivative,
symbol (i xi_x - xi_y) / sqrt(2), kernel the constants alone; its triplets
are read off the symbol.

Gauge.  Only D_plus depends on the gauge.  The Landau gauge puts the link
phase e^{-i phi j} on every +y link and e^{i phi M k} on the +x links that
cross the seam j = M-1 -> 0, with phi = 2 pi N / M^2 the flux per plaquette.
The symmetric-periodic operator is built as G D_Landau G^* for the diagonal
site phase G[j, k] = exp(-i pi N j k / M^2) of ``_symmetric_phase``: the same
singular values, and singular vectors multiplied by G.  A Toeplitz
compression Theta^* diag(f) Theta does not see G, so everything downstream
of the kernel is gauge-free.

Curvature normalization: in the continuum the commutator
D_plus D_plus^* - D_plus^* D_plus is the constant CURVATURE_SCALE * N; on
the lattice this holds on the resolved states only, so the Weitzenbock
residual is measured on the numerical kernel basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .algebra import _gram_top
from .errors import ConvergenceError, GapBoundError, IndeterminateKernelError, ResolutionError

CURVATURE_SCALE = 2.0 * math.pi  # continuum value of [D+, D+*] per flux unit

GAUGES = ("landau", "symmetric-periodic")

_MAX_ITERATIONS = 300  # block subspace iterations per chain solve
_RESIDUAL_TOL = 1e-10  # on |(B^* B + 1)^-1 v - mu v| for each wanted Ritz pair


@dataclass(frozen=True)
class DolbeaultPair:
    """Degree-0 -> degree-1 block of the lattice Dolbeault operator."""

    dplus: sp.csr_matrix = field(repr=False)
    n_flux: int
    grid: int
    gauge: str


@dataclass(frozen=True)
class SpectralReport:
    kernel_dim: int
    coker_dim: int
    sigma_min_nonzero: float
    gap_degree1: float
    parametrix_norm: float
    spectrum_degree0: tuple
    spectrum_degree1: tuple


def _cyclic_step(n: int) -> sp.csr_matrix:
    """Sparse n x n matrix of v -> v(i + 1 mod n)."""
    return (sp.eye(n, k=1) + sp.eye(n, k=1 - n)).tocsr()


def _symmetric_phase(n_flux: int, grid: int) -> np.ndarray:
    """Site phases G[j, k] = exp(-i pi N j k / M^2): D_symmetric = G D_Landau G^*."""
    return np.exp(-1j * math.pi * n_flux * np.outer(np.arange(grid), np.arange(grid)) / grid**2)


def build_dolbeault(n_flux: int, grid: int, gauge: str = "landau") -> DolbeaultPair:
    """Assemble D_plus at flux N on the M x M grid.

    Requires M >= max(4, 4N) so the lowest magnetic band is resolved.
    """
    if n_flux < 0:
        raise ValueError("flux must be non-negative")
    if grid < max(4, 4 * n_flux):
        raise ResolutionError(
            f"grid {grid} too coarse for flux {n_flux}; need at least {max(4, 4 * n_flux)}"
        )
    if gauge not in GAUGES:
        raise ValueError(f"unknown gauge {gauge!r}; expected one of {GAUGES}")
    M, eye = grid, sp.identity(grid)
    if n_flux == 0:
        # exact spectral derivative F^* diag(i xi) F along each axis
        freq = 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)
        d1 = np.fft.ifft(1j * freq[:, None] * np.fft.fft(np.eye(M), axis=0), axis=0)
        grad_x, grad_y = sp.kron(d1, eye), sp.kron(eye, d1)
    else:
        # Landau link phases on (j, k) -> (j+1, k) and (j, k) -> (j, k+1)
        phi, step = 2.0 * math.pi * n_flux / (M * M), _cyclic_step(M)
        j = np.arange(M)[:, None].astype(float)
        k = np.arange(M)[None, :].astype(float)
        ux = np.ones((M, M), dtype=complex)
        ux[M - 1, :] = np.exp(1j * phi * M * k[0])
        uy = np.exp(-1j * phi * j) * np.ones((1, M))
        grad_x = M * (sp.diags(ux.ravel()) @ sp.kron(step, eye) - sp.identity(M * M))
        grad_y = M * (sp.diags(uy.ravel()) @ sp.kron(eye, step) - sp.identity(M * M))
    dplus = (grad_x + 1j * grad_y) / math.sqrt(2.0)
    if gauge == "symmetric-periodic":
        site = sp.diags(_symmetric_phase(n_flux, M).ravel())
        dplus = site @ dplus @ site.conj()
    dplus = dplus.tocsr()
    return DolbeaultPair(dplus=dplus, n_flux=n_flux, grid=grid, gauge=gauge)


def _chain_triplets(chains: sp.csr_matrix, lu, g: int, m: int):
    """Lowest m singular values (ascending) and right vectors of each chain.

    The g chains iterate as one (g, L, 2m) block; ``lu`` factors B^* B + 1.
    Converged once each wanted Ritz pair (mu, v) of that inverse has
    |(B^* B + 1)^-1 v - mu v| <= _RESIDUAL_TOL.
    """
    n = chains.shape[0]
    L, q = n // g, min(n // g, 2 * m)
    x = np.random.default_rng(0).standard_normal((g, L, q))
    for _ in range(_MAX_ITERATIONS):
        basis = np.linalg.qr(x)[0]
        bq = (chains @ basis.reshape(n, q)).reshape(g, L, q)
        _, svals, wh = np.linalg.svd(np.linalg.qr(bq, mode="r"))  # the SVD of B Q
        svals, ritz = svals[:, ::-1], basis @ wh[:, ::-1].conj().transpose(0, 2, 1)
        x = lu.solve(ritz.reshape(n, q)).reshape(g, L, q)
        residual = np.linalg.norm(x - ritz / (1.0 + svals[:, None, :] ** 2), axis=1)
        if residual[:, :m].max() <= _RESIDUAL_TOL:
            return svals[:, :m], ritz[:, :, :m]
    raise ConvergenceError(
        f"chain iteration above residual {_RESIDUAL_TOL:.0e} after {_MAX_ITERATIONS} steps"
    )


@lru_cache(maxsize=24)
def _kernel_data(n_flux: int, grid: int, gauge: str):
    """Lowest k = max(2N + 6, 8) singular values of D_plus and their vectors.

    Returns (sigma_max, the k values ascending, their orthonormal right
    singular vectors as columns); one cached solve serves every query.
    """
    build_dolbeault(n_flux, grid, gauge)  # validates the arguments
    N, M, k = n_flux, grid, max(2 * n_flux + 6, 8)
    modes = np.zeros((M * M, k), dtype=complex)  # (xi_x, xi_y) at N = 0, else (j, p)
    if N == 0:
        freq = 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)
        symbol = np.hypot(freq[:, None], freq[None, :]).ravel() / math.sqrt(2.0)
        order = np.argsort(symbol, kind="stable")[:k]
        sigma_max, svals = float(symbol.max()), symbol[order]
        modes[order, np.arange(k)] = 1.0
    else:
        # chain c, position s = t*M + j holds site (j, p = c - t*N mod M)
        g = math.gcd(N, M)
        L = M * M // g
        t, j = np.divmod(np.arange(L), M)
        p = (np.arange(g)[:, None] - N * t) % M
        b = M / math.sqrt(2.0)
        diag = b * (-1.0 + 1j * (np.exp(2j * math.pi * (p / M - N * j / (M * M))) - 1.0))
        chains = (sp.diags(diag.ravel()) + b * sp.kron(sp.identity(g), _cyclic_step(L))).tocsr()
        # zig-zag columns 0, L-1, 1, L-2, ... make each cyclic chain's
        # tridiagonal-plus-corner normal matrix a band of width 2
        half, odd = np.divmod(np.arange(L), 2)
        zigzag = np.where(odd, L - 1 - half, half)
        perm = (L * np.arange(g)[:, None] + zigzag).ravel()
        sigma_max = math.sqrt(_gram_top(chains[:, perm], (np.abs(diag).max() + b) ** 2))
        normal = (chains.getH() @ chains).tocsc()
        lu = spla.splu(normal + sp.identity(M * M, format="csc"))
        m = min(L, -(-k // g) + 2)  # an even share of k per chain, and two spare
        values, ritz = _chain_triplets(chains, lu, g, m)
        # what a chain leaves out lies above its m-th value, so the merged
        # lowest k are certain once they sit at or below every chain's m-th
        while m < L and np.sort(values, axis=None)[k - 1] > values[:, -1].min():
            m = min(L, 2 * m)
            values, ritz = _chain_triplets(chains, lu, g, m)
        order = np.argsort(values, axis=None, kind="stable")[:k]
        svals, (chain, column) = values.ravel()[order], np.divmod(order, m)
        modes[(j * M + p)[chain].T, np.arange(k)] = ritz[chain, :, column].T
    vecs = np.fft.ifftn(modes.reshape(M, M, k), axes=(0, 1) if N == 0 else (1,), norm="ortho")
    if gauge == "symmetric-periodic":
        vecs *= _symmetric_phase(N, M)[..., None]
    svals.flags.writeable = False
    vecs.flags.writeable = False
    return sigma_max, svals, vecs.reshape(M * M, k)


def _kernel_basis(n_flux: int, grid: int, gauge: str, tol: float) -> np.ndarray:
    """Read-only cached vectors with singular value below tol * sigma_max.

    Orthonormal by construction (disjoint chain supports, QR'd Ritz blocks, a
    unitary FFT).  Raises if a singular value is within a factor 10 of the
    threshold (either side), so an ambiguous kernel fails loudly.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    sigma_max, svals, vecs = _kernel_data(n_flux, grid, gauge)
    threshold = tol * sigma_max
    if svals[-1] < threshold:
        raise IndeterminateKernelError(
            "kernel not separated within the computed low spectrum"
        )
    ambiguous = [s for s in svals if threshold / 10.0 < s < threshold * 10.0]
    if ambiguous:
        raise IndeterminateKernelError(
            "singular value %.3e within a decade of threshold %.3e"
            % (ambiguous[0], threshold)
        )
    return vecs[:, : np.count_nonzero(svals < threshold)]


def kernel_dimension(pair: DolbeaultPair, tol: float = 1e-6) -> int:
    """Count singular values of D_plus below tol * sigma_max; ambiguous counts raise."""
    return _kernel_basis(pair.n_flux, pair.grid, pair.gauge, tol).shape[1]


def kernel_basis(pair: DolbeaultPair, tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, shape (M^2, dim_kernel)."""
    return _kernel_basis(pair.n_flux, pair.grid, pair.gauge, tol)


def spectral_report(
    pair: DolbeaultPair, slack: float = 0.1, tol: float = 1e-6
) -> SpectralReport:
    """Kernel size, degree-1 gap, and parametrix norm with the curvature bound.

    gap_degree1 is the smallest *nonzero* eigenvalue of D+ D+*: the zero
    eigenvalues forced by the rank theorem are doubler artifacts, and the
    nonzero bottom is the quantity controlling the parametrix norm
    gap_degree1 ** -0.5.  Asserts gap_degree1 >= N (1 - slack); the
    continuum gap is CURVATURE_SCALE * N, far above that bound, so the
    slack only absorbs discretization error.
    """
    if slack <= 0:
        raise ValueError("slack must be positive")
    n = pair.n_flux
    dim_kernel = kernel_dimension(pair, tol)
    _, svals0, _ = _kernel_data(n, pair.grid, pair.gauge)
    # D+ is square, so D+ D+* and D+* D+ share their spectrum, multiplicities
    # of zero included: the one solve serves both degrees, coker_dim included
    vals = svals0**2
    if vals.size == dim_kernel:
        raise GapBoundError("no nonzero degree-1 spectrum resolved")
    gap = float(vals[dim_kernel])
    bound = n * (1.0 - slack)
    if n > 0 and gap < bound:
        raise GapBoundError(f"degree-1 gap {gap:.6g} below curvature bound {bound:.6g}")
    spectrum = tuple(float(v) for v in vals)
    return SpectralReport(
        kernel_dim=dim_kernel,
        coker_dim=dim_kernel,
        sigma_min_nonzero=float(svals0[dim_kernel]),
        gap_degree1=gap,
        parametrix_norm=gap**-0.5,  # gap >= (tol * sigma_max)^2 > 0
        spectrum_degree0=spectrum,
        spectrum_degree1=spectrum,
    )


def weitzenbock_residual(pair: DolbeaultPair) -> float:
    """Norm of (D+ D+* - D+* D+ - CURVATURE_SCALE * N) on the resolved states.

    The commutator equals the constant curvature in the continuum, an
    identity that can only hold on states the grid resolves: at grid-scale
    momenta the forward differences see the Brillouin-zone corner and the
    identity degrades by O(1) regardless of refinement.  The residual is
    therefore the operator norm of the defect restricted to the smoothest
    available states, the numerical kernel, and shrinks like O(M^-2).
    """
    theta = kernel_basis(pair)
    d, dh = pair.dplus, pair.dplus.getH()
    defect = d @ (dh @ theta) - dh @ (d @ theta) - CURVATURE_SCALE * pair.n_flux * theta
    return float(np.linalg.norm(defect, 2))
