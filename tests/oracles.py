"""Independent oracles used to freeze expected values in the tests.

Each oracle is deliberately written against the raw definitions (explicit
loops, Bloch reduction, brute-force quadrature) and never calls the code
path it is used to check.  The last two helpers are reference checks rather
than oracles: they measure a property (plaquette holonomy, Hermitian
symmetry of the module pairing) of the library's own output.
"""

import cmath
import csv
import math
import sys

import numpy as np

from quantlab.algebra import ball_points, compose, involution, sigma
from quantlab.sections import module_inner


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
    for t1 in psi.terms:
        for t2 in phi.terms:
            total += (
                t1.coeff.conjugate()
                * t2.coeff
                * inner_1d(t1.center[0], t2.center[0], t1.wave[0], t2.wave[0])
                * inner_1d(t1.center[1], t2.center[1], t1.wave[1], t2.wave[1])
            )
    return total


def write_rows_csv(path, header, rows) -> None:
    """The CLI's CSV rows rendered by ``csv.writer``, to ``path`` or stdout.

    Floats are written as ``repr(float(v))``.  A string cell holding commas
    (a pre-joined label) is split into its cells first, and ``csv.writer``
    renders each one, quoting any that needs it.
    """
    fh = open(path, "w") if path else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
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
    for (j, k), c in f.modes.items():
        out += c * np.exp(2j * math.pi * (j * x + k * y))
    return out.ravel()


def cyclic_shift(n: int) -> np.ndarray:
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[(i + 1) % n, i] = 1.0
    return s


def plaquette_phases(pair) -> np.ndarray:
    """Link phases of ``pair.dplus`` multiplied around each plaquette, traversed +y,+x,-y,-x.

    D+ = (M / sqrt 2) (ux S_x - 1 + i (uy S_y - 1)), so the entry from site
    (j, k) to (j+1, k) is M ux / sqrt 2 and the one to (j, k+1) is i M uy / sqrt 2.
    """
    M, d = pair.grid, pair.dplus.toarray()
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
