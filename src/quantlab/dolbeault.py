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
chains of length L = M^2/g, stepping (j, p) -> (j+1, p) and crossing the seam
as (M-1, p) -> (0, p-N), with off-diagonal b = M/sqrt(2) and diagonal
b (-1 + i (e^{i theta} - 1)); at chain c, position s = t M + j,
theta = 2 pi (p/M - N j/M^2) = 2 pi u / M^2 with the integer
u = (c M - N s) mod M^2, from which the diagonal is computed.  Magnetic
translations carry the chains onto one another: with d = gcd(N, M^2) and
c0 = d / g, chain c is chain r = c mod c0 rolled by Delta_c, where
N Delta_c = (c - r) M (mod M^2), so its diagonal (equal integers u) and
matrix are r's permuted, bit for bit, and its singular vectors are r's
rolled.  Only the c0 representatives are solved: one chain whenever N | M.
A chain B = diag(d) + b S (S the cyclic step) is never assembled:
``_chain_apply`` forms B Q as d Q plus b times Q shifted one site along the
chain (B^* Q as conj(d) Q plus b times Q shifted back), and the one sparse
matrix built is the shifted normal matrix B^* B + 1, whose three cyclic
diagonals are |d|^2 + b^2 + 1 and b conj(d_i) at (i, i+1 mod L) with its
conjugate at (i+1 mod L, i).  A block subspace iteration with one sparse
LU of it finds the representatives' lowest singular triplets; the block
takes three LU solves between Rayleigh-Ritz steps, and convergence is
tested on the first of them.  The loop runs on one BLAS thread
(``_blas.one_blas_thread``): its QRs and SVDs are of L x 2m blocks, too small for a second OpenBLAS
thread to pay (a complex QR of a 576 x 12 block took 0.23 ms on two
threads and 0.11-0.16 ms on one, on a 2-core machine).  Rayleigh-Ritz is
an SVD of B Q, so singular values carry eps * |D+| error like a dense SVD
and every copy of a repeated value is found.  The kernel is judged on
these values alone: it ends at the last sharp drop of the computed low
spectrum, sigma_i < KERNEL_GAP * sigma_{i+1} (``_kernel_size``), so no
scale of |D+| is needed.  At zero flux the doubler zero would land on the
momentum grid whenever 4 | M, so the fluxless operator is the exact
spectral derivative, symbol (i xi_x - xi_y) / sqrt(2), kernel the
constants alone; its triplets are read off the symbol, as plane waves on
g = M chains of length M, one per momentum p.

The kernel stays in chain form and is judged once: the cache holds the k
lowest values and the d kernel columns' chain ids and chain vectors of
length L, not an M^2 x k site block.  Every reader unpacks that record:
``kernel_dimension`` and ``spectral_report`` read the values,
``kernel_compression`` (the Toeplitz sum) and ``weitzenbock_residual`` the
chains; ``kernel_basis`` puts the d columns on the grid on demand, for
``--export-kernel`` and ``holomorphic_basis``, the one site-space block.

Gauge.  Only D_plus depends on the gauge, and it is only ever applied on the
Landau chains, never assembled.  The Landau gauge puts the link
phase e^{-i phi j} on every +y link and e^{i phi M k} on the +x links that
cross the seam j = M-1 -> 0, with phi = 2 pi N / M^2 the flux per plaquette.
The symmetric-periodic operator is G D_Landau G^* for the diagonal site
phase G[j, k] = exp(-i pi N j k / M^2) of ``_symmetric_phase``: the same
singular values, and singular vectors multiplied by G.  So both gauges
share the Landau solve, and only ``kernel_basis`` applies G; neither a Toeplitz
compression Theta^* diag(f) Theta nor the curvature residual sees G.

Curvature normalization: in the continuum the commutator
D_plus D_plus^* - D_plus^* D_plus is the constant CURVATURE_SCALE * N; on
the lattice this holds on the resolved states only, so the Weitzenbock
residual is measured on the numerical kernel, with the one D_plus above:
B B^* - B^* B on each kernel chain vector (``_chain_apply``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._blas import one_blas_thread
from .errors import ConvergenceError, ResolutionError

CURVATURE_SCALE = 2.0 * math.pi  # continuum value of [D+, D+*] per flux unit

GAUGES = ("landau", "symmetric-periodic")

_MAX_ITERATIONS = 300  # Rayleigh-Ritz steps per chain solve
# LU solves of the block per Rayleigh-Ritz step: one solve costs less than the
# step's two QRs and SVD, and three cut the steps about threefold (two gave
# half that saving, four no further saving in time)
_SOLVES_PER_STEP = 3
_RESIDUAL_TOL = 1e-10  # on |(B^* B + 1)^-1 v - mu v| for each wanted Ritz pair
KERNEL_GAP = 1e-4  # the kernel ends at the last sigma_i < KERNEL_GAP * sigma_{i+1}


@dataclass(frozen=True)
class DolbeaultPair:
    """Degree-0 -> degree-1 block of the lattice Dolbeault operator: validated arguments only."""

    n_flux: int
    grid: int
    gauge: str


@dataclass(frozen=True)
class SpectralReport:
    kernel_dim: int
    gap_degree1: float
    parametrix_norm: float


def _symmetric_phase(n_flux: int, grid: int) -> np.ndarray:
    """Site phases G[j, k] = exp(-i pi N j k / M^2): D_symmetric = G D_Landau G^*."""
    return np.exp(-1j * math.pi * n_flux * np.outer(np.arange(grid), np.arange(grid)) / grid**2)


def build_dolbeault(n_flux: int, grid: int, gauge: str = "landau") -> DolbeaultPair:
    """D_plus at flux N on the M x M grid, applied on its chains by ``_chain_apply``.

    Requires M >= max(4, 4N), without which the lowest magnetic band cannot
    be resolved.  The floor is necessary, not sufficient: of the 210 grids
    N = 1..12, M = 4N..8N (even M above N = 6), 13 pass it and then raise
    ResolutionError from the kernel query: (1, 4..8), (2, 8..11),
    (3, 12..14) and (4, 16); N >= 5 resolves from M = 4N.
    """
    if n_flux < 0:
        raise ValueError("flux must be non-negative")
    if grid < max(4, 4 * n_flux):
        raise ResolutionError(
            f"grid {grid} too coarse for flux {n_flux}; need at least {max(4, 4 * n_flux)}"
        )
    if gauge not in GAUGES:
        raise ValueError(f"unknown gauge {gauge!r}; expected one of {GAUGES}")
    return DolbeaultPair(n_flux, grid, gauge)


def _chain_classes(n_flux: int, grid: int):
    """Magnetic-translation classes of the g = gcd(N, M) Landau chains at N > 0.

    Returns (c0, rep, shift): chain c is chain rep[c] = c mod c0 with its
    sites rolled by shift[c], where c0 = d / g for d = gcd(N, M^2) (that is
    d / gcd(d, M)) and N shift[c] = (c - rep[c]) M (mod M^2).  So chain c's
    diagonal is np.roll(rep's, shift[c]) exactly, and as the cyclic step
    commutes with a roll, so are its matrix and its singular vectors.
    """
    N, M = n_flux, grid
    g, d = math.gcd(N, M), math.gcd(N, M * M)
    c0, chain = d // g, np.arange(g)
    shift = (chain // c0) * (M // g) * pow(N // d, -1, M * M // d) % (M * M // d)
    return c0, chain % c0, shift


def _chain_diagonal(n_flux: int, grid: int, chain: np.ndarray) -> np.ndarray:
    """Diagonals of the Landau chains ``chain``, one row of length M^2 / g each.

    Position s of chain c has b (-1 + i (e^{i theta} - 1)), b = M / sqrt(2),
    theta = 2 pi u / M^2 for the integer u = (c M - N s) mod M^2: equal u
    give bit-identical entries.
    """
    N, M = n_flux, grid
    u = (chain[:, None] * M - N * np.arange(M * M // math.gcd(N, M))) % (M * M)
    b = M / math.sqrt(2.0)
    return b * (-1.0 + 1j * (np.exp(2j * math.pi * u / (M * M)) - 1.0))


def _chain_apply(diag: np.ndarray, b: float, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """B v, or B^* v if ``adjoint``, for the chains B = diag(diag[c]) + b S.

    ``v`` is a (g, L, q) block, chain c's vectors in v[c]; S is the cyclic
    step v -> v(i + 1 mod L), so B^* v is conj(d) v plus b times v(i - 1).
    """
    if adjoint:
        return diag.conj()[:, :, None] * v + b * np.roll(v, 1, axis=1)
    return diag[:, :, None] * v + b * np.roll(v, -1, axis=1)


def _chain_triplets(diag: np.ndarray, b: float, lu, m: int):
    """Lowest m singular values (ascending) and right vectors of each chain.

    Chain c is B = diag(diag[c]) + b S, S the cyclic step v -> v(i + 1 mod L).
    The g chains iterate as one (g, L, 2m) block; ``lu`` factors B^* B + 1,
    and the block takes _SOLVES_PER_STEP solves with it between Rayleigh-Ritz
    steps.  Convergence is tested on the first of them: the step's pairs are
    returned once each wanted Ritz pair (mu, v) of that inverse has
    |(B^* B + 1)^-1 v - mu v| <= _RESIDUAL_TOL.
    """
    g, L = diag.shape
    n, q = g * L, min(L, 2 * m)
    x = np.random.default_rng(0).standard_normal((g, L, q))
    with one_blas_thread():
        for _ in range(_MAX_ITERATIONS):
            basis = np.linalg.qr(x)[0]
            bq = _chain_apply(diag, b, basis)
            _, svals, wh = np.linalg.svd(np.linalg.qr(bq, mode="r"))  # the SVD of B Q
            svals, ritz = svals[:, ::-1], basis @ wh[:, ::-1].conj().transpose(0, 2, 1)
            x = lu.solve(ritz.reshape(n, q)).reshape(g, L, q)
            residual = np.linalg.norm(x - ritz / (1.0 + svals[:, None, :] ** 2), axis=1)
            if residual[:, :m].max() <= _RESIDUAL_TOL:
                return svals[:, :m], ritz[:, :, :m]
            for _ in range(_SOLVES_PER_STEP - 1):
                x = lu.solve(x.reshape(n, q)).reshape(g, L, q)
        raise ConvergenceError(
            f"chain iteration above residual {_RESIDUAL_TOL:.0e} after {_MAX_ITERATIONS} steps"
        )


@lru_cache(maxsize=24)
def _kernel_data(n_flux: int, grid: int, gauge: str):
    """The judged kernel of D_plus: (k lowest singular values, d chain ids, d chain vectors).

    The k = max(2N + 6, 8) lowest values ascending; for each of the d =
    ``_kernel_size`` kernel columns, the chain c of its right singular vector
    and that vector, a row of length L = M^2 / g; all read-only, one cached
    solve per grid.  Position s = t M + j of chain c is site (j, p = (c - N t)
    mod M) after a unitary FFT along y; at N = 0 the M chains, one per p, are
    solved by plane waves.  The symmetric-periodic gauge returns the Landau
    data (``kernel_basis`` applies its phase G).  An unresolved kernel raises
    ResolutionError, and nothing is cached.
    """
    if gauge == "symmetric-periodic":
        return _kernel_data(n_flux, grid, "landau")
    build_dolbeault(n_flux, grid, gauge)  # validates the arguments
    N, M, k = n_flux, grid, max(2 * n_flux + 6, 8)
    if N == 0:
        freq = 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)
        values = np.hypot(freq, freq[:, None]) / math.sqrt(2.0)  # [p, xi_x]
    else:
        g = math.gcd(N, M)
        L = M * M // g
        b = M / math.sqrt(2.0)
        c0, rep, shift = _chain_classes(N, M)
        diag = _chain_diagonal(N, M, np.arange(c0))
        # B^* B + 1 from its three cyclic diagonals per chain
        here = np.arange(c0 * L).reshape(c0, L)
        ahead = np.roll(here, -1, axis=1).ravel()
        here, upper = here.ravel(), b * diag.conj().ravel()
        main = (diag.real**2 + diag.imag**2 + (b * b + 1.0)).ravel()
        entries = np.concatenate([main, upper, upper.conj()])
        rows, cols = np.concatenate([here, here, ahead]), np.concatenate([here, ahead, here])
        lu = spla.splu(sp.csc_matrix((entries, (rows, cols)), shape=(c0 * L, c0 * L)))
        m = min(L, -(-k // g) + 2)  # an even share of k per chain, and two spare
        values, ritz = _chain_triplets(diag, b, lu, m)
        # what a chain leaves out lies above its m-th value, so the merged
        # lowest k are certain once they sit at or below every chain's m-th
        while m < L and np.sort(values[rep], axis=None)[k - 1] > values[:, -1].min():
            m = min(L, 2 * m)
            values, ritz = _chain_triplets(diag, b, lu, m)
        values = values[rep]  # every chain is its representative's matrix rolled by its shift
    order = np.argsort(values, axis=None, kind="stable")[:k]
    svals = values.ravel()[order]
    chain, column = np.divmod(order[: _kernel_size(svals)], values.shape[1])
    if N == 0:  # chain p's plane waves e^{2 pi i xi_x j / M}
        vecs = np.exp(2j * math.pi * (np.outer(column, np.arange(M)) % M) / M) / math.sqrt(M)
    else:
        vecs = ritz[rep[chain][:, None], (np.arange(L) - shift[chain][:, None]) % L, column[:, None]]
    for array in (svals, chain, vecs):
        array.flags.writeable = False
    return svals, chain, vecs


def _kernel_size(svals: np.ndarray) -> int:
    """The kernel's dimension: i + 1 for the largest i with sigma_i < KERNEL_GAP * sigma_{i+1}.

    So sigma_{i+1} > 0 even at N = 0's exact zero.  No such i raises
    ResolutionError: the grid does not resolve the kernel.
    """
    drops = np.flatnonzero(svals[:-1] < KERNEL_GAP * svals[1:])
    if not drops.size:
        raise ResolutionError(
            f"kernel unresolved: lowest singular value {svals[0]:.3e}, no drop by {KERNEL_GAP:.0e}"
        )
    return int(drops[-1]) + 1


def kernel_basis(pair: DolbeaultPair) -> np.ndarray:
    """Orthonormal kernel basis (M^2, dim_kernel), one row per site, built anew on each call.

    The cached chain vectors scattered to their (j, p) sites and transformed
    back along y; the symmetric-periodic gauge multiplies by the site phase G
    of ``_symmetric_phase``.  Orthonormal by construction (disjoint chain
    supports, QR'd Ritz blocks, a unitary FFT).  An unresolved kernel raises
    ResolutionError.
    """
    N, M = pair.n_flux, pair.grid
    _, chain, vecs = _kernel_data(N, M, pair.gauge)
    d, L = vecs.shape
    t, j = np.divmod(np.arange(L), M)
    modes = np.zeros((M, M, d), dtype=complex)
    modes[j, (chain[:, None] - N * t) % M, np.arange(d)[:, None]] = vecs
    basis = np.fft.ifft(modes, axis=1, norm="ortho")
    if pair.gauge == "symmetric-periodic":
        basis *= _symmetric_phase(N, M)[..., None]
    return basis.reshape(M * M, d)


_GATHER_SIZE = 1 << 19  # chain entries ``kernel_compression`` gathers at once: 8 MB per complex temporary


def kernel_compression(pair: DolbeaultPair, modes: dict) -> np.ndarray:
    """Theta^* diag(f) Theta on the kernel's chains, f = sum of modes[a, b] e^{2 pi i (a x + b y)}.

    Column alpha of Theta is the chain vector v_alpha on chain c_alpha.  The
    mode e^{2 pi i (a x + b y)} multiplies position j by e^{2 pi i a j / M}
    and moves p to p + b, so by Parseval

        T_{alpha beta} = sum_b sum_s conj(v_alpha(s)) F_b(j_s) v_beta(s'),
        F_b(j) = sum_a f(a, b) e^{2 pi i a j / M},

    s' the position on c_beta of the site (j_s, p_s - b); the term vanishes
    unless c_alpha = c_beta + b (mod g).  O(L) work per (b, alpha, beta),
    gathered ``_GATHER_SIZE`` entries at a time, and no M^2-row array.  As
    G^* diag(f) G = diag(f), every gauge gives the Landau matrix.
    """
    N, M = pair.n_flux, pair.grid
    _, chain, vecs = _kernel_data(N, M, pair.gauge)
    (d, length), g = vecs.shape, math.gcd(N, M)
    turns = M // g  # position s = t M + j of a chain has t < turns
    # F_y(j) = sum over a of f(a, y) e^{2 pi i a j / M}: one row per y-frequency of f
    a, b = np.fromiter(itertools.chain.from_iterable(modes), np.int64).reshape(-1, 2).T % M
    ys, row = np.unique(b, return_inverse=True)
    cell, coef = row * M + a, np.fromiter(modes.values(), complex, b.size)
    spectrum = np.bincount(cell, coef.real, ys.size * M) + 1j * np.bincount(cell, coef.imag, ys.size * M)
    table = np.fft.ifft(spectrum.reshape(-1, M), norm="forward")
    # e^{2 pi i y k / M} moves p to p + y: it pairs chain c_alpha = c_beta + y + g q with
    # c_beta, and position t M + j of c_alpha with t' M + j of c_beta, t' = t - q (N/g)^-1
    y, alpha, beta = np.nonzero((chain[:, None] - chain - ys[:, None, None]) % g == 0)
    step = (chain[beta] - chain[alpha] + ys[y]) // g * pow(N // g, -1, turns) % turns
    rows = vecs.reshape(d, turns, M)
    conj = rows.conj()
    entries = np.zeros((ys.size, d, d), dtype=complex)
    block = max(1, _GATHER_SIZE // length)  # pairs per gather
    for p in (slice(i, i + block) for i in range(0, y.size, block)):
        moved = rows[beta[p, None], (np.arange(turns) + step[p, None]) % turns]
        entries[y[p], alpha[p], beta[p]] = np.einsum("ptj,ptj,pj->p", conj[alpha[p]], moved, table[y[p]])
    return entries.sum(axis=0)


def kernel_dimension(pair: DolbeaultPair) -> int:
    """Columns of ``kernel_basis(pair)``; an unresolved kernel raises."""
    return _kernel_data(pair.n_flux, pair.grid, pair.gauge)[1].size


def spectral_report(pair: DolbeaultPair) -> SpectralReport:
    """Kernel size, degree-1 gap, and parametrix norm.

    gap_degree1 is the eigenvalue of D+ D+* just above the kernel's last
    sharp drop: the zero eigenvalues forced by the rank theorem are doubler
    artifacts, and that nonzero bottom controls the parametrix norm
    gap_degree1 ** -0.5.  Reports without judging: ``quantlab spectral``
    gates kernel_dim = max(N, 1) and gap_degree1 >= N (1 - slack); the
    continuum gap is CURVATURE_SCALE * N, far above that bound.
    """
    svals, chain, _ = _kernel_data(pair.n_flux, pair.grid, pair.gauge)
    # D+ is square, so D+ D+* and D+* D+ share their spectrum, multiplicities
    # of zero included: the one solve serves both degrees; the judge has
    # found a computed value above the kernel's last drop
    gap = float((svals**2)[chain.size])
    return SpectralReport(
        kernel_dim=chain.size,
        gap_degree1=gap,
        parametrix_norm=gap**-0.5,  # gap > 0: above a drop, sigma_{i+1} > sigma_i / KERNEL_GAP >= 0
    )


def weitzenbock_residual(pair: DolbeaultPair) -> float:
    """Norm of (D+ D+* - D+* D+ - CURVATURE_SCALE * N) on the resolved states.

    The commutator equals the constant curvature in the continuum, an
    identity that can only hold on states the grid resolves: at grid-scale
    momenta the forward differences see the Brillouin-zone corner and the
    identity degrades by O(1) regardless of refinement.  The residual is
    therefore the operator norm of the defect restricted to the smoothest
    available states, the numerical kernel, and shrinks like O(M^-2).  It
    is computed on the kernel's cached chain vectors with the
    chains' own B and B^* (``_chain_apply``): the y-FFT is unitary and the
    defect keeps each column on its chain, so the norm is the largest over
    chains of the block of columns on it.  The gauge phase G is a diagonal
    unitary and drops out.  At N = 0 D+ is a Fourier multiplier, which
    commutes with its adjoint: the residual is exactly 0.0.
    """
    _, chain, vecs = _kernel_data(pair.n_flux, pair.grid, pair.gauge)
    N, M = pair.n_flux, pair.grid
    if N == 0:
        return 0.0
    diag, b, v = _chain_diagonal(N, M, chain), M / math.sqrt(2.0), vecs[:, :, None]
    d_dh = _chain_apply(diag, b, _chain_apply(diag, b, v, adjoint=True))
    dh_d = _chain_apply(diag, b, _chain_apply(diag, b, v), adjoint=True)
    defect = (d_dh - dh_d - CURVATURE_SCALE * N * v)[:, :, 0]
    return max(float(np.linalg.norm(defect[chain == c], 2)) for c in np.unique(chain))
