"""Toeplitz quantization on the lattice holomorphic-section basis.

Symbols are trigonometric polynomials f(x, y) = sum c_{jk} e^{2 pi i (jx+ky)}.
The Toeplitz matrix of f at flux N compresses pointwise multiplication to the
numerical kernel of the lattice Dolbeault operator; with the kernel basis
orthonormal in the grid inner product this is ``Theta^* diag(f) Theta``.
T(f) does not depend on the gauge of the Dolbeault operator: a gauge change
multiplies Theta by the diagonal unitary G, and G^* diag(f) G = diag(f).  The
basis is read in the Landau gauge.

``defect_sweep`` takes the four defects over a flux sweep: it forms fg,
{f, g} and G(f, g) once per sweep and assembles five matrices per flux,
T(f), T(g), T(fg), T({f, g}) and T(G); the first-order correction uses
linearity, T(fg + G/N) = T(fg) + T(G)/N.

Scaling conventions tied to the symplectic form 2 pi dx ^ dy:

* Poisson bracket {f, g} = (f_y g_x - f_x g_y) / (2 pi);
* first-order product correction G(f, g) = -(1/pi) f_z g_zbar, normalized by
  the antisymmetrization identity G(f, g) - G(g, f) = i {f, g};
* the semiclassical parameter is the flux N, playing 1/hbar.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .algebra import AlgebraElement, convolve, reflect
from .dolbeault import _kernel_basis
from .errors import DegenerateToeplitzError


class TrigPolynomial(AlgebraElement):
    """Fourier symbol: a coefficient map on Z^2 read as modes (j, k) on the torus."""

    __slots__ = ()

    def __mul__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        """Pointwise product of symbols: the untwisted convolution of modes."""
        return convolve(self, other, lambda m1, m2: 1.0)

    def conj(self) -> "TrigPolynomial":
        return reflect(self, lambda m: 1.0)

    def is_real(self) -> bool:
        return all(
            abs(c - self.coefficient((-j, -k)).conjugate()) <= 1e-12
            for (j, k), c in self._terms.items()
        )

    def mean(self) -> complex:
        return self.coefficient((0, 0))

    def sample(self, grid: int) -> np.ndarray:
        """Values on the M x M grid x = a/M, y = b/M, flattened x-major.

        Separable: Ex @ C @ Ey for the (j, k) coefficient table C and the
        one-axis waves Ex[a, j] = e^{2 pi i j a/M}, Ey[k, b] = e^{2 pi i k b/M}.
        """
        if not self._terms:
            return np.zeros(grid * grid, dtype=complex)
        modes = np.array(list(self._terms))
        low, high = modes.min(axis=0), modes.max(axis=0)
        table = np.zeros(high - low + 1, dtype=complex)
        table[tuple((modes - low).T)] = list(self._terms.values())
        coords = np.arange(grid) / grid
        ex = np.exp(2j * math.pi * np.outer(coords, np.arange(low[0], high[0] + 1)))
        ey = np.exp(2j * math.pi * np.outer(np.arange(low[1], high[1] + 1), coords))
        return (ex @ table @ ey).ravel()


NAMED_SYMBOLS = {
    "one": TrigPolynomial({(0, 0): 1.0}),
    "cos2pix": TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5}),
    "sin2pix": TrigPolynomial({(1, 0): -0.5j, (-1, 0): 0.5j}),
    "cos2piy": TrigPolynomial({(0, 1): 0.5, (0, -1): 0.5}),
    "sin2piy": TrigPolynomial({(0, 1): -0.5j, (0, -1): 0.5j}),
    "exp-2pix": TrigPolynomial({(-1, 0): 1.0}),
    "exp-2piy": TrigPolynomial({(0, -1): 1.0}),
}


def named_symbol(name: str) -> TrigPolynomial:
    try:
        return NAMED_SYMBOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown symbol {name!r}; choices: {sorted(NAMED_SYMBOLS)}"
        ) from None


def poisson_bracket(f: TrigPolynomial, g: TrigPolynomial) -> TrigPolynomial:
    """{f, g} = (f_y g_x - f_x g_y) / (2 pi); mode pair weight 2 pi (j k' - k j')."""
    return convolve(
        f, g, lambda m1, m2: 2.0 * math.pi * (m1[0] * m2[1] - m1[1] * m2[0])
    )


def gradient_pairing(f: TrigPolynomial, g: TrigPolynomial) -> TrigPolynomial:
    """First-order product correction G(f, g) = -(1/pi) f_z g_zbar.

    The antisymmetrized combination obeys G(f,g) - G(g,f) = i {f, g}, which
    is the normalization the commutator decay law selects; both the overall
    sign of G and the Poisson sign are locked empirically by the
    O(N^-2) decay of the corrected defects (the wrong sign decays only one
    order slower).
    """
    # d/dz of e^{2pi i(jx+ky)} multiplies by pi i (j - i k); d/dzbar by pi i (j + i k)
    return convolve(
        f, g, lambda m1, m2: math.pi * (m1[0] - 1j * m1[1]) * (m2[0] + 1j * m2[1])
    )


def holomorphic_basis(n_flux: int, grid: int) -> np.ndarray:
    """Orthonormal Landau-gauge kernel basis at (N, M), read off the cached kernel solve."""
    return _kernel_basis(n_flux, grid, "landau")


def toeplitz(f: TrigPolynomial, n_flux: int, grid: int) -> np.ndarray:
    """Compression of multiplication by f to the holomorphic-section basis."""
    basis = holomorphic_basis(n_flux, grid)
    return basis.conj().T @ (f.sample(grid)[:, None] * basis)


def _opnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def _require_flux(n_flux: int, defect: str) -> None:
    if n_flux < 1:
        raise ValueError(f"{defect} defect divides by the flux; need N >= 1, got {n_flux}")


def _require_real(f: TrigPolynomial) -> None:
    if not f.is_real():
        raise ValueError("trace limit defect is defined for real symbols")


# The defect formulas, on Toeplitz matrices already assembled; tftg = T(f) T(g).
def _product(tftg: np.ndarray, tfg: np.ndarray) -> float:
    return _opnorm(tftg - tfg)


def _commutator(tftg: np.ndarray, tgtf: np.ndarray, tpb: np.ndarray, n_flux: int) -> float:
    return _opnorm(tftg - tgtf - (1j / n_flux) * tpb)


def _first_order(tftg: np.ndarray, tfg: np.ndarray, tpair: np.ndarray, n_flux: int) -> float:
    # T(fg + G/N) = T(fg) + T(G)/N: the compression is linear in the symbol
    return _opnorm(tftg - tfg - tpair / n_flux)


def _trace_limit(tf: np.ndarray, f: TrigPolynomial) -> float:
    return float(abs(np.trace(tf) / tf.shape[0] - f.mean()))


def product_defect(f: TrigPolynomial, g: TrigPolynomial, n_flux: int, grid: int) -> float:
    """Operator norm of T(f) T(g) - T(fg)."""
    tf = toeplitz(f, n_flux, grid)
    tg = toeplitz(g, n_flux, grid)
    return _product(tf @ tg, toeplitz(f * g, n_flux, grid))


def commutator_defect(f: TrigPolynomial, g: TrigPolynomial, n_flux: int, grid: int) -> float:
    """Operator norm of [T(f), T(g)] - (i/N) T({f, g}); needs N >= 1."""
    _require_flux(n_flux, "commutator")
    tf = toeplitz(f, n_flux, grid)
    tg = toeplitz(g, n_flux, grid)
    tpb = toeplitz(poisson_bracket(f, g), n_flux, grid)
    return _commutator(tf @ tg, tg @ tf, tpb, n_flux)


def first_order_defect(f: TrigPolynomial, g: TrigPolynomial, n_flux: int, grid: int) -> float:
    """Operator norm of T(f) T(g) - T(fg + (1/N) G(f, g)); needs N >= 1."""
    _require_flux(n_flux, "first-order")
    tf = toeplitz(f, n_flux, grid)
    tg = toeplitz(g, n_flux, grid)
    tfg = toeplitz(f * g, n_flux, grid)
    tpair = toeplitz(gradient_pairing(f, g), n_flux, grid)
    return _first_order(tf @ tg, tfg, tpair, n_flux)


def trace_limit_defect(f: TrigPolynomial, n_flux: int, grid: int) -> float:
    """|normalized trace of T(f) - mean f| for a real symbol."""
    _require_real(f)
    return _trace_limit(toeplitz(f, n_flux, grid), f)


def defect_sweep(
    f: TrigPolynomial, g: TrigPolynomial, cells: Sequence[tuple[int, int]]
) -> list[dict[str, float]]:
    """The four defects of (f, g) at each flux and grid (N, M) of ``cells``, in order.

    Each cell gives a dict with the values of ``product_defect``,
    ``commutator_defect``, ``first_order_defect`` and ``trace_limit_defect``
    under the keys "product", "commutator", "first_order" and "trace".  The
    symbols fg, {f, g} and G(f, g) are formed once per call; each cell
    assembles the five matrices T(f), T(g), T(fg), T({f, g}) and T(G) and
    forms T(f) T(g) once.  A non-real f or a flux below 1 raises ValueError
    before any kernel solve, with the single defects' messages.
    """
    for n_flux, _ in cells:
        _require_flux(n_flux, "commutator")
    _require_real(f)
    fg, bracket, pairing = f * g, poisson_bracket(f, g), gradient_pairing(f, g)
    sweep = []
    for n_flux, grid in cells:
        tf = toeplitz(f, n_flux, grid)
        tg = toeplitz(g, n_flux, grid)
        tfg = toeplitz(fg, n_flux, grid)
        tftg = tf @ tg
        sweep.append(
            {
                "product": _product(tftg, tfg),
                "commutator": _commutator(tftg, tg @ tf, toeplitz(bracket, n_flux, grid), n_flux),
                "first_order": _first_order(tftg, tfg, toeplitz(pairing, n_flux, grid), n_flux),
                "trace": _trace_limit(tf, f),
            }
        )
    return sweep


def fit_loglog_slope(ns: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n), ignoring dead zeros (<= 1e-14)."""
    xs, ys = [], []
    for n, v in zip(ns, values):
        if v > 1e-14:
            xs.append(math.log(float(n)))
            ys.append(math.log(float(v)))
    if len(xs) < 2:
        return 0.0
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    u, sig, vh = np.linalg.svd(a)
    if sig[-1] < 1e-12 * (sig[0] if sig[0] > 0 else 1.0):
        raise DegenerateToeplitzError(
            f"singular Toeplitz generator: smallest singular value {sig[-1]:.3e}"
        )
    return u @ vh


def weyl_relation(n_flux: int, grid: int) -> complex:
    """Group commutator scalar of the polar factors of the two Fourier generators.

    Returns the scalar V~ U~ V~* U~* for U~, V~ the unitary polar parts of
    T(e^{-2 pi i x}) and T(e^{-2 pi i y}); for flux N it is an N-th root of
    unity e^{+-2 pi i / N}, the noncommutative-torus relation at parameter 1/N.
    """
    if n_flux < 2:
        raise ValueError("weyl relation needs flux >= 2")
    tu = toeplitz(named_symbol("exp-2pix"), n_flux, grid)
    tv = toeplitz(named_symbol("exp-2piy"), n_flux, grid)
    uu = _polar_unitary(tu)
    vv = _polar_unitary(tv)
    w = vv @ uu @ vv.conj().T @ uu.conj().T
    scalar = complex(np.trace(w) / w.shape[0])
    deviation = _opnorm(w - scalar * np.eye(w.shape[0]))
    if deviation > 1e-6:
        raise DegenerateToeplitzError(
            f"group commutator is not scalar: off-scalar norm {deviation:.3e}"
        )
    return scalar


def bargmann_matrix_element(j: int, k: int, s: float) -> complex:
    """Vacuum expectation of e^{-2 pi i (jx + ky)} over the plane, by quadrature.

    160-node Gauss-Hermite per axis after u = sqrt(pi s) x; converges to the
    closed form s^-1 exp(-pi (j^2 + k^2) / s) for the Gaussian vacuum.
    """
    if s <= 0:
        raise ValueError("width parameter s must be positive")
    u, w = np.polynomial.hermite.hermgauss(160)
    root = math.sqrt(math.pi * s)

    def axis(freq: int) -> complex:
        return complex(np.sum(w * np.exp(-2j * math.pi * freq * u / root)) / root)

    return axis(j) * axis(k)


def _ladder(truncation: int) -> np.ndarray:
    a = np.zeros((truncation + 1, truncation + 1), dtype=complex)
    for n in range(truncation):
        a[n, n + 1] = math.sqrt(n + 1)
    return a


def heisenberg_generator_check(s: float, truncation: int = 60) -> dict:
    """Finite-dimensional witness of the magnetic-translation generators.

    Realizes X, Y with [X, Y] = -2 pi i s on a truncated oscillator ladder,
    exponentiates to the group commutator e^{iY/s} e^{-iX/s} e^{-iY/s} e^{iX/s}
    (expected scalar e^{2 pi i / s}), and checks the zero mode
    (X - iY) psi_0 = 0 for the Gaussian vacuum on a plane grid.
    """
    if s <= 0:
        raise ValueError("width parameter s must be positive")
    if truncation < 1:
        raise ValueError("ladder truncation must be >= 1")
    a = _ladder(truncation)
    ad = a.conj().T
    root = math.sqrt(math.pi * s)
    x = root * (a + ad)
    y = 1j * root * (a - ad)
    inner = slice(0, truncation)  # last ladder row/column is corrupted
    comm = x @ y - y @ x
    target = -2j * math.pi * s * np.eye(truncation + 1)
    commutator_residual = _opnorm((comm - target)[inner, inner])

    wmat = (
        sla.expm(1j * y / s)
        @ sla.expm(-1j * x / s)
        @ sla.expm(-1j * y / s)
        @ sla.expm(1j * x / s)
    )
    scalar = complex(wmat[0, 0])
    block = min(10, truncation)
    deviation = _opnorm(wmat[:block, :block] - scalar * np.eye(block))

    # zero mode on a grid patch, spectral differentiation
    n_grid = 256
    half = 6.0 / math.sqrt(s)  # psi = exp(-18 pi) ~ 3e-25 at the box edge, for every s
    coords = -half + 2.0 * half * np.arange(n_grid) / n_grid
    xg = coords[:, None]
    yg = coords[None, :]
    psi = np.exp(-(math.pi * s / 2.0) * (xg**2 + yg**2))
    freq = 2.0 * math.pi * np.fft.fftfreq(n_grid, d=2.0 * half / n_grid)
    dx = np.fft.ifft(1j * freq[:, None] * np.fft.fft(psi, axis=0), axis=0)
    dy = np.fft.ifft(1j * freq[None, :] * np.fft.fft(psi, axis=1), axis=1)
    # X - iY = i d/dx + d/dy + pi s (y + i x)
    zero_mode = 1j * dx + dy + math.pi * s * (yg + 1j * xg) * psi
    zero_mode_residual = float(np.abs(zero_mode).max() / np.abs(psi).max())

    return {
        "commutator_residual": commutator_residual,
        "group_commutator_scalar": scalar,
        "group_commutator_expected": cmath.exp(2j * math.pi / s),
        "group_commutator_deviation": deviation,
        "zero_mode_residual": zero_mode_residual,
        "truncation": truncation,
    }
