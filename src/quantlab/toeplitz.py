"""Toeplitz quantization on the lattice holomorphic-section basis.

Symbols are trigonometric polynomials f(x, y) = sum c_{jk} e^{2 pi i (jx+ky)}.
The Toeplitz matrix of f at flux N compresses pointwise multiplication to the
numerical kernel of the lattice Dolbeault operator, ``Theta^* diag(f) Theta``
for a kernel basis Theta orthonormal in the grid inner product.  ``toeplitz``
is ``dolbeault.kernel_compression`` of f's modes, summed on the kernel's
magnetic chains without forming Theta.  T(f) does not depend on the gauge: a
gauge change multiplies Theta by a diagonal unitary G, and G^* diag(f) G = diag(f).

``defect_sweep`` takes the four defects over a flux sweep: it forms fg,
{f, g} and G(f, g) once per sweep and assembles five matrices per flux,
T(f), T(g), T(fg), T({f, g}) and T(G); the first-order correction uses
linearity, T(fg + G/N) = T(fg) + T(G)/N.  ``product_defect``,
``commutator_defect``, ``first_order_defect`` and ``trace_limit_defect`` are
its one-cell views.  ``NAMED_SYMBOLS`` maps each symbol name the CLI takes
to its polynomial; indexing it is the one lookup by name.

Scaling conventions tied to the symplectic form 2 pi dx ^ dy:

* Poisson bracket {f, g} = (f_y g_x - f_x g_y) / (2 pi);
* first-order product correction G(f, g) = -(1/pi) f_z g_zbar, normalized by
  the antisymmetrization identity G(f, g) - G(g, f) = i {f, g};
* the semiclassical parameter is the flux N, playing 1/hbar.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, convolve, reflect
from .dolbeault import DolbeaultPair, kernel_basis, kernel_compression
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


NAMED_SYMBOLS = {
    "one": TrigPolynomial({(0, 0): 1.0}),
    "cos2pix": TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5}),
    "sin2pix": TrigPolynomial({(1, 0): -0.5j, (-1, 0): 0.5j}),
    "cos2piy": TrigPolynomial({(0, 1): 0.5, (0, -1): 0.5}),
    "sin2piy": TrigPolynomial({(0, 1): -0.5j, (0, -1): 0.5j}),
    "exp-2pix": TrigPolynomial({(-1, 0): 1.0}),
    "exp-2piy": TrigPolynomial({(0, -1): 1.0}),
}


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
    """``kernel_basis`` of the Landau pair (N, M); the kernel solve validates it on a cache miss."""
    return kernel_basis(DolbeaultPair(n_flux, grid, "landau"))


def toeplitz(f: TrigPolynomial, n_flux: int, grid: int) -> np.ndarray:
    """Compression of multiplication by f to the holomorphic-section basis, on its chains."""
    return kernel_compression(DolbeaultPair(n_flux, grid, "landau"), f.terms)


def _opnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def defect_sweep(
    f: TrigPolynomial, g: TrigPolynomial, cells: Sequence[tuple[int, int]]
) -> list[dict[str, float]]:
    """The four defects of (f, g) at each flux and grid (N, M) of ``cells``, in order.

    Each cell gives a dict with the keys "product", "commutator",
    "first_order" and "trace": the operator norms of T(f) T(g) - T(fg),
    [T(f), T(g)] - (i/N) T({f, g}) and T(f) T(g) - T(fg + G(f, g)/N), and
    |tr T(f) / dim - mean f|.  T(f) T(g) is formed once per cell.  A non-real
    f or a flux below 1 raises ValueError before any kernel solve.
    """
    for n_flux, _ in cells:
        if n_flux < 1:
            raise ValueError(f"commutator defect divides by the flux; need N >= 1, got {n_flux}")
    if not f.is_real():
        raise ValueError("trace limit defect is defined for real symbols")
    fg, bracket, pairing = f * g, poisson_bracket(f, g), gradient_pairing(f, g)
    sweep = []
    for n_flux, grid in cells:
        tf = toeplitz(f, n_flux, grid)
        tg = toeplitz(g, n_flux, grid)
        tfg = toeplitz(fg, n_flux, grid)
        tftg = tf @ tg
        sweep.append(
            {
                "product": _opnorm(tftg - tfg),
                "commutator": _opnorm(
                    tftg - tg @ tf - (1j / n_flux) * toeplitz(bracket, n_flux, grid)
                ),
                # T(fg + G/N) = T(fg) + T(G)/N: the compression is linear in the symbol
                "first_order": _opnorm(tftg - tfg - toeplitz(pairing, n_flux, grid) / n_flux),
                "trace": float(abs(np.trace(tf) / tf.shape[0] - f.mean())),
            }
        )
    return sweep


# One-cell views of ``defect_sweep``, with its domain: N >= 1 and a real f.
def product_defect(f: TrigPolynomial, g: TrigPolynomial, n_flux: int, grid: int) -> float:
    """Operator norm of T(f) T(g) - T(fg)."""
    return defect_sweep(f, g, [(n_flux, grid)])[0]["product"]


def commutator_defect(f: TrigPolynomial, g: TrigPolynomial, n_flux: int, grid: int) -> float:
    """Operator norm of [T(f), T(g)] - (i/N) T({f, g})."""
    return defect_sweep(f, g, [(n_flux, grid)])[0]["commutator"]


def first_order_defect(f: TrigPolynomial, g: TrigPolynomial, n_flux: int, grid: int) -> float:
    """Operator norm of T(f) T(g) - T(fg + (1/N) G(f, g))."""
    return defect_sweep(f, g, [(n_flux, grid)])[0]["first_order"]


def trace_limit_defect(f: TrigPolynomial, n_flux: int, grid: int) -> float:
    """|normalized trace of T(f) - mean f|."""
    return defect_sweep(f, f, [(n_flux, grid)])[0]["trace"]


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
    T(e^{-2 pi i x}) and T(e^{-2 pi i y}); for flux N it is e^{-2 pi i / N}, the
    noncommutative-torus relation at parameter 1/N in ``algebra``'s orientation.
    """
    if n_flux < 2:
        raise ValueError("weyl relation needs flux >= 2")
    tu = toeplitz(NAMED_SYMBOLS["exp-2pix"], n_flux, grid)
    tv = toeplitz(NAMED_SYMBOLS["exp-2piy"], n_flux, grid)
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
