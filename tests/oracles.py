"""Independent oracles used to freeze expected values in the tests.

Each oracle is deliberately written against the raw definitions (explicit
loops, Bloch reduction, brute-force quadrature) and never calls the code
path it is used to check.  ``dplus_matrix`` and ``chain_matrix`` assemble as
sparse matrices the operators the library only applies as stencils.  The
last two helpers are reference checks rather than oracles: they measure a
property (plaquette holonomy of ``dplus_matrix``, Hermitian symmetry of the
module pairing) that the library's output must have.
"""

import cmath
import csv
import math
import sys

import numpy as np
import scipy.sparse as sp

from quantlab.algebra import ball_points, compose, involution, sigma
from quantlab.cocycle import solve_phi
from quantlab.errors import IndeterminateKernelError, ResolutionError
from quantlab.sections import module_inner
from quantlab.toeplitz import gradient_pairing, poisson_bracket, toeplitz


def twisted_convolution(a_terms, b_terms, kappa, s):
    """Brute-force twisted product of coefficient dicts {(n, m): coeff}."""
    out = {}
    for (n1, m1), z1 in a_terms.items():
        for (n2, m2), z2 in b_terms.items():
            phase = cmath.exp(1j * s * kappa * (m1 * n2 - n1 * m2))
            key = (n1 + n2, m1 + m2)
            out[key] = out.get(key, 0.0) + z1 * z2 * phase
    return {k: v for k, v in out.items() if v != 0}


def regular_representation_loop(a, cocycle, s: float, radius: int) -> np.ndarray:
    """Ball compression of left multiplication by ``a``, one entry at a time.

    ``[g'] delta_g = sigma_s(g', g) delta_{g'+g}`` for each term ``g'`` and
    ball point ``g``, with one scalar cocycle call per entry; hops that leave
    the ball are dropped.
    """
    points = ball_points(radius)
    index = {g: i for i, g in enumerate(points)}
    mat = np.zeros((len(points), len(points)), dtype=complex)
    for gp, z in a.terms.items():
        for g, col in index.items():
            row = index.get(compose(gp, g))
            if row is not None:
                mat[row, col] += z * sigma(cocycle, s, gp, g)
    return mat


def hofstadter_bloch_norm(p: int, q: int, grid: int = 240) -> float:
    """Norm of the hopping element at rational twist s = p/q.

    Magnetic Bloch reduction: the q x q fiber Hamiltonian has diagonal
    2 cos(ky + 2 pi (p/q) j) and unit hopping around a q-cycle closed by
    e^{+- i q kx}; the norm is the supremum of |eigenvalues| over the
    magnetic Brillouin zone.
    """
    alpha = p / q
    best = 0.0
    for kx in np.linspace(0.0, 2.0 * math.pi / q, grid, endpoint=False):
        for ky in np.linspace(0.0, 2.0 * math.pi, grid // 2, endpoint=False):
            h = np.zeros((q, q), dtype=complex)
            for j in range(q):
                h[j, j] = 2.0 * math.cos(ky + 2.0 * math.pi * alpha * j)
                h[j, (j + 1) % q] += cmath.exp(1j * kx)
                h[(j + 1) % q, j] += cmath.exp(-1j * kx)
            vals = np.linalg.eigvalsh(h)
            best = max(best, float(np.abs(vals).max()))
    return best


def l2_inner_loop(psi, phi) -> complex:
    """Gaussian pairing int conj(psi) phi as a product of 1-D integrals, term pair by term pair.

    Each factor is sqrt(pi / 2a) exp(-(a/2) dmu^2 - dk^2 / 8a + i dk mid)
    with a = pi s / 2, evaluated with its own exponential.
    """
    a = math.pi * psi.s / 2.0

    def inner_1d(mu1, mu2, k1, k2):
        dk, dmu, mid = k2 - k1, mu1 - mu2, 0.5 * (mu1 + mu2)
        return math.sqrt(math.pi / (2.0 * a)) * cmath.exp(
            -0.5 * a * dmu * dmu - dk * dk / (8.0 * a) + 1j * dk * mid
        )

    total = 0.0 + 0.0j
    for c1, (x1, y1), (kx1, ky1) in zip(psi.coeffs, psi.centers, psi.waves):
        for c2, (x2, y2), (kx2, ky2) in zip(phi.coeffs, phi.centers, phi.waves):
            total += c1.conjugate() * c2 * inner_1d(x1, x2, kx1, kx2) * inner_1d(y1, y2, ky1, ky2)
    return total


def write_rows_csv(path, header, rows) -> None:
    """The CLI's CSV rows rendered by ``csv.writer``, to ``path`` or stdout.

    Floats are written as ``repr(float(v))``.  A string cell holding commas
    (a pre-joined label) is split into its cells first, and ``csv.writer``
    renders each one, quoting any that needs it.  A row given as a string
    (whole pre-formatted lines) is split into lines and cells the same way.
    """
    fh = open(path, "w") if path else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                writer.writerows(line.split(",") for line in row.splitlines())
                continue
            cells = []
            for v in row:
                if isinstance(v, float):
                    cells.append(repr(float(v)))
                elif isinstance(v, str):
                    cells.extend(v.split(","))
                else:
                    cells.append(v)
            writer.writerow(cells)
    finally:
        if path:
            fh.close()


def cocycle_rows_loop(points, values) -> str:
    """``cocycle-check``'s CSV text: the header, then one f-string and one ``repr`` per pair."""
    lines = ["claim,n1,m1,n2,m2,value\n"]
    for (n1, m1), row in zip(points, values):
        for (n2, m2), value in zip(points, row):
            lines.append(f"cocycle-value,{n1},{m1},{n2},{m2},{float(value)!r}\n")
    return "".join(lines)


def cocycle_combination_loop(A, radius: int) -> np.ndarray:
    """``phi_{g2} + g2^* phi_{g1} - phi_{g1 g2}`` for each pair of the ball, one pair at a time.

    Entry ``[i, j]`` holds the coefficients of the combination on the pair
    ``(points[i], points[j])``.  The pull-back is ``B(n2) phi_{g1} B(m2)^T``
    with the shift matrix ``B(d)[a, i] = C(i, a) d^(i - a)`` written out entry
    by entry, and each phase comes from its own ``solve_phi`` call.
    """

    def shift(d, size):
        return np.array(
            [[math.comb(i, a) * float(d) ** (i - a) if i >= a else 0.0 for i in range(size)]
             for a in range(size)]
        )

    points = ball_points(radius)
    phase = {g: solve_phi(A, g) for g in ball_points(2 * radius)}
    out = []
    for g1 in points:
        rows, cols = phase[g1].shape
        out.append(
            [
                phase[g2] + shift(g2[0], rows) @ phase[g1] @ shift(g2[1], cols).T
                - phase[compose(g1, g2)]
                for g2 in points
            ]
        )
    return np.array(out)


def gaussian_quadrature_inner(psi, phi, half_width: float = 9.0, points: int = 1200):
    """Trapezoid quadrature of int conj(psi) phi over a large box."""
    xs = np.linspace(-half_width, half_width, points)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = np.conj(psi(X, Y)) * phi(X, Y)
    return complex(np.trapezoid(np.trapezoid(vals, xs, axis=1), xs))


def lll_theta_profile(n_flux: int, grid: int, shift: float = 0.5) -> np.ndarray:
    """Modulus of the lowest-band density on the grid, from theta-like sums.

    Landau-gauge quasi-periodic sections: psi_l = sum_t
    exp(-pi N (x + (l + t N)/N)^2 + 2 pi i (l + t N) y); the density
    sum_l |psi_l|^2 is basis independent.  ``shift`` places the samples on
    half-offset sites, matching the effective location of forward
    differences.
    """
    coords = (np.arange(grid) + shift) / grid
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    density = np.zeros_like(X)
    for l in range(n_flux):
        psi = np.zeros_like(X, dtype=complex)
        for t in range(-6, 7):
            k = l + t * n_flux
            psi += np.exp(
                -math.pi * n_flux * (X + k / n_flux) ** 2 + 2j * math.pi * k * Y
            )
        density += np.abs(psi) ** 2
    return density


def clock_shift_scalar(n_flux: int) -> float:
    """Continuum magnitude of the Fourier-mode Toeplitz generators."""
    return math.exp(-math.pi / (2.0 * n_flux))


def fft_partials(values):
    """Partial derivatives (f_x, f_y) of torus samples, by FFT.

    ``values[j, k]`` is f(j/M, k/M) on the M x M grid; the result is exact
    to roundoff for trigonometric polynomials whose modes stay below M/2.
    """
    grid = values.shape[0]
    freq = 2j * math.pi * np.fft.fftfreq(grid, d=1.0 / grid)
    spectrum = np.fft.fft2(values)
    fx = np.fft.ifft2(freq[:, None] * spectrum)
    fy = np.fft.ifft2(freq[None, :] * spectrum)
    return fx, fy


def sample_loop(f, grid: int) -> np.ndarray:
    """Values of a TrigPolynomial on the M x M grid, one full-grid exp per mode."""
    coords = np.arange(grid) / grid
    x = coords[:, None]
    y = coords[None, :]
    out = np.zeros((grid, grid), dtype=complex)
    for (j, k), c in f.terms.items():
        out += c * np.exp(2j * math.pi * (j * x + k * y))
    return out.ravel()


def toeplitz_defects_separate(f, g, n_flux: int, grid: int) -> dict:
    """The four sweep defects, each assembling its own Toeplitz matrices.

    Ten assemblies and four symbol products per cell; the first-order term is
    T(fg + G/N) of the combined symbol, not T(fg) + T(G)/N.
    """
    def t(symbol):
        return toeplitz(symbol, n_flux, grid)

    def opnorm(a):
        return float(np.linalg.norm(a, 2))

    def multiplicativity(symbol):
        return opnorm(t(f) @ t(g) - t(symbol))

    tf, tg = t(f), t(g)
    trace_f = t(f)
    return {
        "product": multiplicativity(f * g),
        "commutator": opnorm(tf @ tg - tg @ tf - (1j / n_flux) * t(poisson_bracket(f, g))),
        "first_order": multiplicativity(f * g + gradient_pairing(f, g).scale(1.0 / n_flux)),
        "trace": float(abs(np.trace(trace_f) / trace_f.shape[0] - f.mean())),
    }


def dense_kernel_judgement(dense: np.ndarray, tol: float):
    """The kernel rule applied to a dense SVD, scaled by the exact top singular value.

    Returns the number of singular values below ``tol * top``, or the error
    type the rule raises: ``IndeterminateKernelError`` when a value lies
    within a factor 10 of the threshold (either side), ``ResolutionError``
    when none lies below it.
    """
    svals = np.linalg.svd(dense, compute_uv=False)
    threshold = tol * svals[0]
    if np.any((threshold / 10.0 < svals) & (svals < threshold * 10.0)):
        return IndeterminateKernelError
    return int(np.count_nonzero(svals < threshold)) or ResolutionError


def cyclic_shift(n: int) -> np.ndarray:
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[(i + 1) % n, i] = 1.0
    return s


def _cyclic_step(n: int) -> sp.csr_matrix:
    """Sparse n x n matrix of v -> v(i + 1 mod n)."""
    return (sp.eye(n, k=1) + sp.eye(n, k=1 - n)).tocsr()


def dplus_matrix(n_flux: int, grid: int, gauge: str = "landau") -> sp.csr_matrix:
    """The lattice D+ on the M x M grid as a sparse M^2-square matrix, site (j, k) at j*M + k.

    At N = 0 the spectral derivative F^* diag(i xi) F along each axis; at
    N > 0 the forward differences M (u S - 1) with the Landau link phases
    ux = e^{i phi M k} on the seam row j = M-1 (1 elsewhere) and
    uy = e^{-i phi j}, phi = 2 pi N / M^2; D+ = (grad_x + i grad_y) / sqrt 2.
    The symmetric-periodic operator is G D_Landau G^* with
    G[j, k] = exp(-i pi N j k / M^2).
    """
    M, eye = grid, sp.identity(grid)
    if n_flux == 0:
        freq = 2.0 * math.pi * np.fft.fftfreq(M, d=1.0 / M)
        d1 = np.fft.ifft(1j * freq[:, None] * np.fft.fft(np.eye(M), axis=0), axis=0)
        grad_x, grad_y = sp.kron(d1, eye), sp.kron(eye, d1)
    else:
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
        phase = np.exp(-1j * math.pi * n_flux * np.outer(np.arange(M), np.arange(M)) / (M * M))
        site = sp.diags(phase.ravel())
        dplus = site @ dplus @ site.conj()
    return dplus.tocsr()


def chain_matrix(diag: np.ndarray, b: float) -> sp.csr_matrix:
    """Block-diagonal matrix of the chains diag(d_c) + b S (S the cyclic step), d_c a row of ``diag``."""
    chains, length = diag.shape
    return (sp.diags(diag.ravel()) + b * sp.kron(sp.identity(chains), _cyclic_step(length))).tocsr()


def plaquette_phases(pair) -> np.ndarray:
    """Link phases of ``pair``'s ``dplus_matrix`` multiplied around each plaquette (+y,+x,-y,-x).

    D+ = (M / sqrt 2) (ux S_x - 1 + i (uy S_y - 1)), so the entry from site
    (j, k) to (j+1, k) is M ux / sqrt 2 and the one to (j, k+1) is i M uy / sqrt 2.
    """
    M, d = pair.grid, dplus_matrix(pair.n_flux, pair.grid, pair.gauge).toarray()
    ux = np.empty((M, M), dtype=complex)
    uy = np.empty((M, M), dtype=complex)
    for j in range(M):
        for k in range(M):
            site = j * M + k
            ux[j, k] = d[site, ((j + 1) % M) * M + k] * math.sqrt(2.0) / M
            uy[j, k] = d[site, j * M + (k + 1) % M] * math.sqrt(2.0) / (1j * M)
    return uy * np.roll(ux, -1, axis=1) * np.conj(np.roll(uy, -1, axis=0)) * np.conj(ux)


def hermitian_defect(psi, phi, cocycle, s: float, radius: int) -> float:
    """Max coefficient difference between <psi|phi>* and <phi|psi>, from module_inner itself."""
    diff = involution(module_inner(psi, phi, radius), cocycle, s) - module_inner(phi, psi, radius)
    return max((abs(z) for z in diff.terms.values()), default=0.0)
