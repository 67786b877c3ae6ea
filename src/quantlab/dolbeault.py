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

At zero flux there are no link phases and the doubler zero would land on
the momentum grid whenever 4 | M; the fluxless operator is therefore built
as the exact spectral derivative, whose kernel is the constants alone.

Curvature normalization: in the continuum the commutator
D_plus D_plus^* - D_plus^* D_plus is the constant CURVATURE_SCALE * N; on
the lattice this holds on the resolved states only, so the Weitzenbock
residual is measured on the numerical kernel basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GapBoundError, IndeterminateKernelError, ResolutionError

CURVATURE_SCALE = 2.0 * math.pi  # continuum value of [D+, D+*] per flux unit

GAUGES = ("landau", "symmetric-periodic")

_SPECTRAL_GRID_LIMIT = 48  # fluxless operator is dense; cap its grid


@dataclass(frozen=True)
class FluxLattice:
    """Link phases on the periodic M x M grid realizing total flux 2 pi N."""

    n_flux: int
    grid: int
    gauge: str
    ux: np.ndarray = field(repr=False)  # phase on (j,k) -> (j+1,k)
    uy: np.ndarray = field(repr=False)  # phase on (j,k) -> (j,k+1)

    def plaquette_phases(self) -> np.ndarray:
        """Product of link phases around each plaquette, traversed +y,+x,-y,-x."""
        ux, uy = self.ux, self.uy
        return (
            uy
            * np.roll(ux, -1, axis=1)
            * np.conj(np.roll(uy, -1, axis=0))
            * np.conj(ux)
        )


def _link_phases(n_flux: int, grid: int, gauge: str) -> Tuple[np.ndarray, np.ndarray]:
    M = grid
    phi = 2.0 * math.pi * n_flux / (M * M)
    j = np.arange(M)[:, None].astype(float)
    k = np.arange(M)[None, :].astype(float)
    if gauge == "landau":
        ux = np.ones((M, M), dtype=complex)
        ux[M - 1, :] = np.exp(1j * phi * M * k[0])
        uy = np.exp(-1j * phi * j) * np.ones((1, M))
    elif gauge == "symmetric-periodic":
        ux = np.exp(1j * phi * k / 2.0) * np.ones((M, 1))
        ux[M - 1, :] *= np.exp(1j * phi * M * k[0] / 2.0)
        uy = np.exp(-1j * phi * j / 2.0) * np.ones((1, M))
        uy[:, M - 1] *= np.exp(-1j * phi * M * j[:, 0] / 2.0)
    else:
        raise ValueError(f"unknown gauge {gauge!r}; expected one of {GAUGES}")
    return ux, uy


def flux_lattice(n_flux: int, grid: int, gauge: str = "landau") -> FluxLattice:
    ux, uy = _link_phases(n_flux, grid, gauge)
    return FluxLattice(n_flux=n_flux, grid=grid, gauge=gauge, ux=ux, uy=uy)


@dataclass(frozen=True)
class DolbeaultPair:
    """Degree-0 -> degree-1 block of the lattice Dolbeault operator."""

    dplus: sp.csr_matrix = field(repr=False)
    n_flux: int
    grid: int
    gauge: str

    @property
    def dim(self) -> int:
        return self.grid * self.grid


@dataclass(frozen=True)
class SpectralReport:
    kernel_dim: int
    coker_dim: int
    sigma_min_nonzero: float
    gap_degree1: float
    parametrix_norm: float
    spectrum_degree0: tuple
    spectrum_degree1: tuple


def _shift_matrix(M: int, axis: int, phases: np.ndarray) -> sp.csr_matrix:
    """Sparse matrix of psi -> phases * psi(shifted by +1 along axis)."""
    idx = np.arange(M * M).reshape(M, M)
    target = np.roll(idx, -1, axis=axis)
    rows = idx.ravel()
    cols = target.ravel()
    vals = phases.ravel().astype(complex)
    return sp.csr_matrix((vals, (rows, cols)), shape=(M * M, M * M))


def _spectral_dbar(grid: int) -> sp.csr_matrix:
    # fluxless case: exact Fourier-diagonal derivative, kernel = constants
    M = grid
    freq = 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)
    symbol = (1j * freq[:, None] - freq[None, :]) / math.sqrt(2.0)
    F = np.fft.fft(np.eye(M), axis=0) / math.sqrt(M)
    F2 = np.kron(F, F)
    D = F2.conj().T @ (symbol.ravel()[:, None] * F2)
    return sp.csr_matrix(D)


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
    if n_flux == 0:
        if grid > _SPECTRAL_GRID_LIMIT:
            raise ResolutionError(
                f"fluxless spectral operator is dense; grid capped at {_SPECTRAL_GRID_LIMIT}"
            )
        return DolbeaultPair(
            dplus=_spectral_dbar(grid), n_flux=0, grid=grid, gauge=gauge
        )
    lat = flux_lattice(n_flux, grid, gauge)
    M = grid
    eye = sp.identity(M * M, dtype=complex, format="csr")
    sx = _shift_matrix(M, 0, lat.ux)
    sy = _shift_matrix(M, 1, lat.uy)
    grad_x = M * (sx - eye)
    grad_y = M * (sy - eye)
    dplus = ((grad_x + 1j * grad_y) / math.sqrt(2.0)).tocsr()
    return DolbeaultPair(dplus=dplus, n_flux=n_flux, grid=grid, gauge=gauge)


_SVD_DENSE_LIMIT = 2400  # one-sided dense SVD bound; beyond it, normal equations


@lru_cache(maxsize=24)
def _kernel_data(n_flux: int, grid: int, gauge: str):
    """One factorization shared by dimension, basis, and spectral queries.

    Returns (sigma_max, low_singular_values, vector_block); the block
    columns correspond to the returned singular values, ascending.  For
    moderate dimensions a dense one-sided SVD resolves singular values to
    eps * sigma_max, which tight kernel thresholds need; the sparse
    normal-equations path only resolves them to sqrt(eps) * sigma_max and
    is reserved for large grids used with the default tolerance.
    """
    pair = build_dolbeault(n_flux, grid, gauge)
    k = max(2 * n_flux + 6, 8)
    if pair.dim <= _SVD_DENSE_LIMIT:
        _, s, vh = np.linalg.svd(pair.dplus.toarray())
        sigma_max = float(s[0])
        svals = s[::-1][:k].copy()
        vecs = vh.conj().T[:, ::-1][:, :k].copy()
    else:
        H = (pair.dplus.getH() @ pair.dplus).tocsr()
        v0 = np.full(pair.dim, 1.0 / math.sqrt(pair.dim))
        top = spla.eigsh(
            H, k=1, which="LA", v0=v0, return_eigenvectors=False, tol=1e-9
        )
        sigma_max = math.sqrt(max(float(top[0]), 0.0))
        vals, vecs = spla.eigsh(H, k=k, sigma=-1.0, which="LM", v0=v0, tol=1e-12)
        order = np.argsort(vals)
        svals = np.sqrt(np.clip(vals[order], 0.0, None))
        vecs = vecs[:, order]
    svals.flags.writeable = False
    vecs.flags.writeable = False
    return sigma_max, svals, vecs


def kernel_dimension(pair: DolbeaultPair, tol: float = 1e-6) -> int:
    """Count singular values of D_plus below tol * (largest singular value).

    Raises if any singular value sits within a factor 10 of the threshold
    (either side), so an ambiguous kernel fails loudly instead of rounding.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    sigma_max, svals, _ = _kernel_data(pair.n_flux, pair.grid, pair.gauge)
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
    return int(np.count_nonzero(svals < threshold))


def kernel_basis(pair: DolbeaultPair, tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, shape (M^2, dim_kernel)."""
    dim_kernel = kernel_dimension(pair, tol)
    _, _, vecs = _kernel_data(pair.n_flux, pair.grid, pair.gauge)
    basis = vecs[:, :dim_kernel]
    # eigensolvers orthonormalize already; QR guards against residual drift
    q, _ = np.linalg.qr(basis)
    return q


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
    sigma_max, svals0, _ = _kernel_data(n, pair.grid, pair.gauge)
    threshold = (tol * sigma_max) ** 2
    # D+ is square, so D+ D+* and D+* D+ share their spectrum, multiplicities
    # of zero included: the one factorization serves both degrees
    vals = svals0**2
    coker_dim = int(np.count_nonzero(vals < threshold))
    nonzero = vals[vals >= threshold]
    if nonzero.size == 0:
        raise GapBoundError("no nonzero degree-1 spectrum resolved")
    gap = float(nonzero[0])
    bound = n * (1.0 - slack)
    if n > 0 and gap < bound:
        raise GapBoundError(f"degree-1 gap {gap:.6g} below curvature bound {bound:.6g}")
    sigma_min_nonzero = float(svals0[dim_kernel])
    parametrix = gap ** (-0.5) if gap > 0 else math.inf
    spectrum = tuple(float(v) for v in vals)
    return SpectralReport(
        kernel_dim=dim_kernel,
        coker_dim=coker_dim,
        sigma_min_nonzero=sigma_min_nonzero,
        gap_degree1=gap,
        parametrix_norm=parametrix,
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
    n = pair.n_flux
    h1 = (pair.dplus @ pair.dplus.getH()).tocsr()
    h0 = (pair.dplus.getH() @ pair.dplus).tocsr()
    commutator = (h1 - h0).tocsr()
    if n == 0:
        # the fluxless operator is normal; the defect matrix vanishes exactly
        dense = commutator.toarray() if commutator.nnz else None
        return float(np.abs(dense).max()) if dense is not None else 0.0
    theta = kernel_basis(pair)
    shifted = commutator @ theta - CURVATURE_SCALE * n * theta
    return float(np.linalg.norm(shifted, 2))
