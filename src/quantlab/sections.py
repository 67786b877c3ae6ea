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

import cmath
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, Lattice, ball_points, trace


@dataclass(frozen=True)
class GaussianTerm:
    coeff: complex
    center: tuple[float, float]
    wave: tuple[float, float]


class GaussianSection:
    """Finite sum of Gaussian terms sharing one width parameter ``s``."""

    __slots__ = ("s", "terms")

    def __init__(self, s: float, terms: Sequence[GaussianTerm]):
        if s <= 0:
            raise ValueError("width parameter s must be positive")
        if not terms:
            raise ValueError("section needs at least one term")
        self.s = float(s)
        self.terms = tuple(terms)

    def scale(self, z: complex) -> "GaussianSection":
        return GaussianSection(
            self.s, [GaussianTerm(z * t.coeff, t.center, t.wave) for t in self.terms]
        )

    def __call__(self, x, y):
        s = self.s
        total = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for t in self.terms:
            total += t.coeff * np.exp(
                -(math.pi * s / 2.0)
                * ((x - t.center[0]) ** 2 + (y - t.center[1]) ** 2)
                + 1j * (t.wave[0] * x + t.wave[1] * y)
            )
        return total

    def to_json(self) -> str:
        records = [
            {
                "re": t.coeff.real,
                "im": t.coeff.imag,
                "mux": t.center[0],
                "muy": t.center[1],
                "kx": t.wave[0],
                "ky": t.wave[1],
                "s": self.s,
            }
            for t in self.terms
        ]
        return json.dumps(records)

    @classmethod
    def from_json(cls, text: str) -> "GaussianSection":
        records = json.loads(text)
        widths = {r["s"] for r in records}
        if len(widths) != 1:
            raise ValueError("all terms of a section must share the width s")
        terms = [
            GaussianTerm(
                complex(r["re"], r["im"]), (r["mux"], r["muy"]), (r["kx"], r["ky"])
            )
            for r in records
        ]
        return cls(widths.pop(), terms)


def vacuum(s: float) -> GaussianSection:
    return GaussianSection(s, [GaussianTerm(1.0, (0.0, 0.0), (0.0, 0.0))])


def project_act(psi: GaussianSection, gamma: Lattice) -> GaussianSection:
    """Projective action ``psi . gamma = exp(i s phi_gamma) gamma^* psi``, symmetric gauge."""
    s = psi.s
    n, m = gamma
    out = []
    for t in psi.terms:
        # gamma^* psi translates the center; e^{i k.gamma} folds into the
        # coefficient; the phase s pi (m x - n y) folds into the wave.
        coeff = t.coeff * cmath.exp(1j * (t.wave[0] * n + t.wave[1] * m))
        center = (t.center[0] - n, t.center[1] - m)
        wave = (t.wave[0] + s * (math.pi * m), t.wave[1] - s * (math.pi * n))
        out.append(GaussianTerm(coeff, center, wave))
    return GaussianSection(s, out)


def l2_inner(psi: GaussianSection, phi: GaussianSection) -> complex:
    """Exact Gaussian-integral value of ``int conj(psi) phi dx dy``.

    With a = pi s / 2, each term pair contributes (pi / 2a) exp(-(a/2)|dmu|^2
    - |dk|^2 / 8a + i dk . mid): dmu and mid are the difference and midpoint
    of the centers, dk the difference of the wave vectors; pi / 2a = 1 / s.
    """
    if psi.s != phi.s:
        raise ValueError("sections must share the width parameter s")
    a = math.pi * psi.s / 2.0
    half_a, eighth_inv_a = 0.5 * a, 0.125 / a
    total = 0.0 + 0.0j
    for t1 in psi.terms:
        (x1, y1), (kx1, ky1) = t1.center, t1.wave
        c1 = t1.coeff.conjugate()
        for t2 in phi.terms:
            (x2, y2), (kx2, ky2) = t2.center, t2.wave
            dx, dy, dkx, dky = x1 - x2, y1 - y2, kx2 - kx1, ky2 - ky1
            exponent = complex(
                -half_a * (dx * dx + dy * dy) - eighth_inv_a * (dkx * dkx + dky * dky),
                0.5 * (dkx * (x1 + x2) + dky * (y1 + y2)),
            )
            total += c1 * t2.coeff * cmath.exp(exponent)
    return total / psi.s


def module_inner(psi: GaussianSection, phi: GaussianSection, radius: int) -> AlgebraElement:
    """Algebra-valued inner product truncated to the sup-norm ball.

    Coefficient at gamma is ``<psi . gamma, phi>_{L^2}``; summation runs in
    lexicographic gamma order for bit-stable output.  Dropped-tail size is
    of order exp(-(pi s / 2) R^2).
    """
    if radius < 1:
        raise ValueError("truncation radius must be >= 1")
    coeffs = {}
    for gamma in ball_points(radius):
        value = l2_inner(project_act(psi, gamma), phi)
        if value != 0:
            coeffs[gamma] = value
    return AlgebraElement(coeffs)


def module_trace(psi: GaussianSection, cocycle, s: float, radius: int) -> float:
    """Trace of the self-pairing; equals the plain L^2 norm by construction."""
    gram = module_inner(psi, psi, radius)
    return trace(gram, cocycle, s).real


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
    Gaussian truncation tail.
    """
    import warnings

    from .algebra import regular_representation

    k = len(sections)
    dim = (2 * rep_radius + 1) ** 2
    big = np.zeros((k * dim, k * dim), dtype=complex)
    for i, psi in enumerate(sections):
        for j, phi in enumerate(sections):
            if j < i:
                continue
            gram = module_inner(psi, phi, radius)
            with warnings.catch_warnings():
                # rep_radius < radius is intended: the Gram element is
                # compressed, its tail accounted for by tail_bound
                warnings.simplefilter("ignore", UserWarning)
                block = regular_representation(gram, cocycle, s, rep_radius)
            big[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = block
    eigvals = np.linalg.eigvalsh(big, UPLO="U")  # reads the blocks i <= j only
    return {
        "sections": k,
        "dimension": k * dim,
        "min_eigenvalue": float(eigvals[0]),
        "max_eigenvalue": float(eigvals[-1]),
        "tail_bound": math.exp(-(math.pi * s / 2.0) * radius**2),
    }
