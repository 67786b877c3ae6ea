"""Independent oracles used to freeze expected values in the tests.

Each oracle is deliberately written against the raw definitions (explicit
loops, Bloch reduction, brute-force quadrature) and never calls the code
path it is used to check.  The last two helpers are reference checks rather
than oracles: they measure a property (plaquette holonomy, Hermitian
symmetry of the module pairing) of the library's own output.
"""

import cmath
import math

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


def cyclic_shift(n: int) -> np.ndarray:
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[(i + 1) % n, i] = 1.0
    return s


def plaquette_phases(lattice) -> np.ndarray:
    """Product of a FluxLattice's link phases around each plaquette, traversed +y,+x,-y,-x."""
    ux, uy = lattice.ux, lattice.uy
    return uy * np.roll(ux, -1, axis=1) * np.conj(np.roll(uy, -1, axis=0)) * np.conj(ux)


def hermitian_defect(psi, phi, cocycle, s: float, radius: int) -> float:
    """Max coefficient difference between <psi|phi>* and <phi|psi>, from module_inner itself."""
    diff = involution(module_inner(psi, phi, radius), cocycle, s) - module_inner(phi, psi, radius)
    return max((abs(z) for z in diff.terms.values()), default=0.0)
