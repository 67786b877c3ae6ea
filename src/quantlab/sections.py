"""Gaussian sections on the covering plane and their algebra-valued pairings.

A section is a finite sum of terms

    coeff * exp(-(pi s / 2) * ((x - mux)^2 + (y - muy)^2) + i (kx x + ky y)),

all sharing the width parameter ``s > 0``.  The lattice acts projectively by
``psi . gamma = exp(i s phi_gamma) gamma^* psi`` with the phase functions
``phi_gamma(x, y) = pi (m x - n y)`` of the symmetric gauge, fixed for the
whole module.  They are linear, which keeps the family closed: translation
moves the center, the phase folds into the wave vector.

The algebra-valued pairing sums plain L^2 inner products of translates,

    <psi|phi>_R = sum_{|gamma| <= R} [gamma] * <psi . gamma, phi>_{L^2(R^2)},

with Gaussian tail decay in the truncation radius R.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np
import scipy.linalg as la

from .algebra import AlgebraElement, Lattice, ball_points, json_records


class GaussianSection:
    """Finite sum of Gaussian terms sharing one width parameter ``s``.

    Term t has coefficient ``coeffs[t]``, center ``centers[t] = (mux, muy)``
    and wave vector ``waves[t] = (kx, ky)``: arrays of shapes (T,), (T, 2)
    and (T, 2), T >= 1.  The two real arrays are C-contiguous, so
    ``.view(complex)`` reads them as complex coordinates mux + i muy and
    kx + i ky, of shape (T, 1).
    """

    __slots__ = ("s", "coeffs", "centers", "waves")

    def __init__(self, s: float, coeffs, centers, waves):
        if s <= 0:
            raise ValueError("width parameter s must be positive")
        coeffs = np.asarray(coeffs, dtype=complex)
        centers = np.ascontiguousarray(centers, dtype=float)
        waves = np.ascontiguousarray(waves, dtype=float)
        if coeffs.size == 0:
            raise ValueError("section needs at least one term")
        if coeffs.ndim != 1 or centers.shape != (len(coeffs), 2) or waves.shape != centers.shape:
            raise ValueError(
                f"term arrays disagree: coeffs {coeffs.shape}, centers {centers.shape}, "
                f"waves {waves.shape}; expected (T,), (T, 2), (T, 2)"
            )
        self.s = float(s)
        self.coeffs, self.centers, self.waves = coeffs, centers, waves

    def __call__(self, x, y):
        x, y = np.asarray(x)[..., None], np.asarray(y)[..., None]
        (mux, muy), (kx, ky) = self.centers.T, self.waves.T
        r2 = (x - mux) ** 2 + (y - muy) ** 2
        return np.exp(-(math.pi * self.s / 2.0) * r2 + 1j * (kx * x + ky * y)) @ self.coeffs

    @classmethod
    def from_json(cls, text: str) -> "GaussianSection":
        """Section from a JSON list of term records ``{re, im, mux, muy, kx, ky, s}``."""
        fields = dict.fromkeys(("re", "im", "mux", "muy", "kx", "ky", "s"), float)
        rows = json_records(json.loads(text), fields)
        if not rows:
            raise ValueError("section needs at least one term")
        terms = np.array(rows)
        if (terms[:, 6] != terms[0, 6]).any():
            raise ValueError("all terms of a section must share the width s")
        return cls(terms[0, 6], terms[:, 0] + 1j * terms[:, 1], terms[:, 2:4], terms[:, 4:6])


def vacuum(s: float) -> GaussianSection:
    return GaussianSection(s, [1.0], [[0.0, 0.0]], [[0.0, 0.0]])


def project_act(psi: GaussianSection, gamma: Lattice) -> GaussianSection:
    """Projective action ``psi . gamma = exp(i s phi_gamma) gamma^* psi``, symmetric gauge.

    In complex coordinates, with g = n + i m: gamma^* psi moves the centers
    by -g; e^{i k.gamma} folds into the coefficients; the phase
    s pi (m x - n y) adds s pi (m - i n) = -i s pi g to the waves.
    """
    n, m = gamma
    g = complex(n, m)
    s, (kx, ky) = psi.s, psi.waves.T
    return GaussianSection(
        s,
        psi.coeffs * np.exp(1j * (kx * n + ky * m)),
        (psi.centers.view(complex) - g).view(float),
        (psi.waves.view(complex) - 1j * s * math.pi * g).view(float),
    )


def l2_inner(psi: GaussianSection, phi: GaussianSection) -> complex:
    """Exact Gaussian-integral value of ``int conj(psi) phi dx dy``.

    With a = pi s / 2, each term pair contributes (pi / 2a) exp(-(a/2)|dmu|^2
    - |dk|^2 / 8a + i dk . mid): dmu and mid are the difference and midpoint
    of the centers, dk the difference of the wave vectors; pi / 2a = 1 / s.
    The T1 x T2 term pairs form one array, in complex coordinates.
    """
    if psi.s != phi.s:
        raise ValueError("sections must share the width parameter s")
    a = math.pi * psi.s / 2.0
    z1, k1 = psi.centers.view(complex), psi.waves.view(complex)  # (T1, 1)
    z2, k2 = phi.centers.view(complex).T, phi.waves.view(complex).T  # (1, T2)
    dz, dk_bar = z1 - z2, (k2 - k1).conj()
    exponent = (
        (-0.5 * a) * (dz * dz.conj()).real
        - (0.125 / a) * (dk_bar * dk_bar.conj()).real
        + 0.5j * (dk_bar * (z1 + z2)).real
    )
    return complex(np.vdot(psi.coeffs, np.exp(exponent) @ phi.coeffs)) / psi.s


def _pairings(psi: GaussianSection, phis: Sequence[GaussianSection], radius: int) -> list:
    """``module_inner(psi, phi, radius)`` for each phi of ``phis``.

    psi is translated once per ball point and paired there with every phi.
    """
    if radius < 1:
        raise ValueError("truncation radius must be >= 1")
    coeffs = [{} for _ in phis]
    for gamma in ball_points(radius):
        moved = project_act(psi, gamma)
        for out, phi in zip(coeffs, phis):
            out[gamma] = l2_inner(moved, phi)
    return [AlgebraElement(c) for c in coeffs]


def module_inner(psi: GaussianSection, phi: GaussianSection, radius: int) -> AlgebraElement:
    """Algebra-valued inner product truncated to the sup-norm ball.

    Coefficient at gamma is ``<psi . gamma, phi>_{L^2}``; summation runs in
    lexicographic gamma order for bit-stable output.  Dropped-tail size is
    of order exp(-(pi s / 2) R^2).  The one-section case of the pairing loop
    that ``gram_positivity`` runs.
    """
    return _pairings(psi, [phi], radius)[0]


def gram_positivity(
    sections: Sequence[GaussianSection],
    cocycle,
    s: float,
    radius: int,
    rep_radius: int,
) -> dict:
    """Assemble regular-representation images of all pairings; report PSD data.

    The block matrix [rep(<psi_i|psi_j>)] is the compression of a positive
    element, so its smallest eigenvalue must not dip below roundoff plus the
    Gaussian truncation tail.  Only the blocks i <= j are formed, in a
    Fortran-order array that LAPACK reduces in place from its upper triangle
    (``lower=False``: the lower blocks stay zero and are never read).
    Block row i comes from one pairing loop: psi_i is translated once per
    point of the radius ball and paired there with each psi_j, j >= i, so
    k sections take k (2R+1)^2 translations and k(k+1)/2 (2R+1)^2 pairings.
    Raises ValueError on no sections, or on a section whose width is not
    the twist s: the pairing acts with the section's own width.
    """
    import warnings

    from .algebra import regular_representation

    if not sections:
        raise ValueError("no sections to pair")
    for psi in sections:
        if psi.s != s:
            raise ValueError(f"section width s = {psi.s!r} differs from the twist s = {s!r}")
    k = len(sections)
    dim = (2 * rep_radius + 1) ** 2
    big = np.zeros((k * dim, k * dim), dtype=complex, order="F")
    for i, psi in enumerate(sections):
        for j, gram in enumerate(_pairings(psi, sections[i:], radius), start=i):
            with warnings.catch_warnings():
                # rep_radius < radius is intended: the Gram element is
                # compressed, its tail accounted for by tail_bound
                warnings.simplefilter("ignore", UserWarning)
                block = regular_representation(gram, cocycle, s, rep_radius)
            big[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = block
    eigvals = la.eigh(big, lower=False, eigvals_only=True, overwrite_a=True, check_finite=False)
    return {
        "sections": k,
        "dimension": k * dim,
        "min_eigenvalue": float(eigvals[0]),
        "max_eigenvalue": float(eigvals[-1]),
        "tail_bound": math.exp(-(math.pi * s / 2.0) * radius**2),
    }
