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
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg as la

from .algebra import (
    AlgebraElement,
    ball_coordinates,
    ball_index,
    ball_points,
    json_records,
    regular_representation,
)


class GaussianSection:
    """Finite sum of Gaussian terms sharing one width parameter ``s``.

    Term t has coefficient ``coeffs[t]``, center ``centers[t] = (mux, muy)``
    and wave vector ``waves[t] = (kx, ky)``: arrays of shapes (T,), (T, 2)
    and (T, 2), T >= 1.  The two real arrays are C-contiguous, so
    ``.view(complex)`` reads them as complex coordinates mux + i muy and
    kx + i ky, of shape (T, 1).  ValueError unless s > 0 and the constants
    ``l2_inner`` pairs with, pi s / 2 and 1 / s, are finite: about
    5.6e-309 <= s <= 5.7e307, past which the pairings read NaN.
    """

    __slots__ = ("s", "coeffs", "centers", "waves")

    def __init__(self, s: float, coeffs, centers, waves):
        if s <= 0:
            raise ValueError("width parameter s must be positive")
        if not (math.isfinite(math.pi * s / 2.0) and math.isfinite(1.0 / s)):
            raise ValueError(f"width parameter s = {s!r} overflows the pairing's pi s / 2 or 1 / s")
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


class _Pool(NamedTuple):
    """Sections psi_1 .. psi_k of one width over their concatenated term lists.

    ``centers`` and ``waves`` stack the sections' (T_i, 2) arrays into
    (T, 2), T = T_1 + ... + T_k; the term counts may differ.  ``coeffs`` is
    (T, k): column i holds psi_i's coefficients at its own terms and zeros
    at the others'.  ``l2_inner`` reads a pool like a section, with a
    coefficient column per section.
    """

    s: float
    coeffs: np.ndarray
    centers: np.ndarray
    waves: np.ndarray


def _pool(sections: Sequence[GaussianSection]) -> _Pool:
    """The sections as one ``_Pool``; ValueError if their widths differ."""
    s = sections[0].s
    if any(psi.s != s for psi in sections):
        raise ValueError("sections must share the width parameter s")
    return _Pool(
        s,
        la.block_diag(*(psi.coeffs[:, None] for psi in sections)),
        np.concatenate([psi.centers for psi in sections]),
        np.concatenate([psi.waves for psi in sections]),
    )


def _translates(pool: _Pool, n, m) -> list[_Pool]:
    """``pool . (n[p], m[p])`` for each p of two integer arrays, in one broadcast.

    The projective action ``psi . gamma = exp(i s phi_gamma) gamma^* psi``
    in the symmetric gauge, on every section of the pool.  In complex
    coordinates, with g = n + i m: gamma^* psi moves the centers by -g;
    e^{i k.gamma} scales each term's row of coefficients; the phase
    s pi (m x - n y) adds s pi (m - i n) = -i s pi g to the waves.  All
    points x terms x sections are formed as (P, T, k) arrays at once, then
    split into one pool per point.  The coefficients enter as a (1, T, k)
    array: numpy rounds a complex product by the operands' layout, and a
    (T, k) one would give P = 1 (``project_act``) other last bits than the
    same point inside a larger batch.
    """
    n, m = np.asarray(n)[:, None], np.asarray(m)[:, None]
    g = n + 1j * m
    s, (kx, ky) = pool.s, pool.waves.T
    coeffs = pool.coeffs[None] * np.exp(1j * (kx * n + ky * m))[..., None]
    centers = (pool.centers.view(complex).T - g)[..., None].view(float)
    waves = (pool.waves.view(complex).T - 1j * s * math.pi * g)[..., None].view(float)
    return [_Pool(s, *arrays) for arrays in zip(coeffs, centers, waves)]


def project_act(psi: GaussianSection, gamma: tuple[float, float]) -> GaussianSection:
    """Projective action ``psi . gamma`` at a lattice or real point: ``_translates`` there."""
    moved = _translates(_pool([psi]), [gamma[0]], [gamma[1]])[0]
    return GaussianSection(psi.s, moved.coeffs[:, 0], moved.centers, moved.waves)


def heisenberg_generator_check(s: float) -> dict:
    """Group commutator of the translations a = (1/s, 0), b = (0, 1/s), exact on sections.

    ``project_act`` moves a fixed three-term section by a then b and by b then
    a; the results must differ by one scalar, e^{-2 pi i / s}.  The
    ``commutator_residual`` is the largest of the coefficient ratio's spread
    and the center and wave mismatches.  Also checks the vacuum's zero mode.
    ValueError outside 1e-6 <= s <= 1e9, where rounding alone nears the 1e-8
    gate: the translation phases round like eps / s, the spectral derivative
    like eps s (4e-8 at s = 1e-8, 2.2e-8 at s = 1e12).
    """
    if not 1e-6 <= s <= 1e9:
        raise ValueError(f"heisenberg check needs 1e-6 <= s <= 1e9, got {s!r}")
    centers, waves = [[0, 0], [0.3, -0.2], [-0.5, 0.4]], [[0, 0], [1, -0.5], [-0.7, 0.3]]
    psi = GaussianSection(s, [1, 0.5 - 0.25j, -0.3 + 0.7j], centers, waves)
    a, b = (1.0 / s, 0.0), (0.0, 1.0 / s)
    ab = project_act(project_act(psi, a), b)
    ba = project_act(project_act(psi, b), a)
    ratios = ab.coeffs / ba.coeffs
    scalar = complex(ratios.mean())
    mismatch = max(np.abs(ab.centers - ba.centers).max(), np.abs(ab.waves - ba.waves).max())
    commutator_residual = float(max(np.abs(ratios - scalar).max(), mismatch))

    # zero mode on a grid patch, spectral differentiation
    n_grid = 256
    half = 6.0 / math.sqrt(s)  # psi0 = exp(-18 pi) ~ 3e-25 at the box edge, for every s
    coords = -half + 2.0 * half * np.arange(n_grid) / n_grid
    xg, yg = coords[:, None], coords[None, :]
    psi0 = vacuum(s)(xg, yg)
    freq = 2.0 * math.pi * np.fft.fftfreq(n_grid, d=2.0 * half / n_grid)
    dx = np.fft.ifft(1j * freq[:, None] * np.fft.fft(psi0, axis=0), axis=0)
    dy = np.fft.ifft(1j * freq[None, :] * np.fft.fft(psi0, axis=1), axis=1)
    # X - iY = i d/dx + d/dy + pi s (y + i x)
    zero_mode = 1j * dx + dy + math.pi * s * (yg + 1j * xg) * psi0
    zero_mode_residual = float(np.abs(zero_mode).max() / np.abs(psi0).max())

    return {
        "commutator_residual": commutator_residual,
        "group_commutator_scalar": scalar,
        "group_commutator_expected": cmath.exp(-2j * math.pi / s),
        "zero_mode_residual": zero_mode_residual,
    }


def l2_inner(psi: GaussianSection | _Pool, phi: GaussianSection | _Pool) -> complex | np.ndarray:
    """Exact Gaussian-integral values of ``int conj(psi_i) phi_j dx dy``.

    psi and phi are sections or ``_Pool`` s.  With a = pi s / 2, each term
    pair contributes (pi / 2a) exp(-(a/2)|dmu|^2 - |dk|^2 / 8a + i dk . mid)
    times its two coefficients: dmu and mid are the difference and midpoint
    of the centers, dk the difference of the wave vectors; pi / 2a = 1 / s.
    The T1 x T2 term pairs form one exp array E, in complex coordinates, and
    the value is c1^H E c2 / s over the coefficients c1, c2.  Two pools give
    the (k1, k2) matrix of every pair of their sections, a pool of one
    section a 1 x 1 matrix, and two sections (coefficient vectors) a scalar.
    """
    if psi.s != phi.s:
        raise ValueError("sections must share the width parameter s")
    a = math.pi * psi.s / 2.0
    z1, k1 = psi.centers.view(complex), psi.waves.view(complex)  # (T1, 1)
    z2, k2 = phi.centers.view(complex).T, phi.waves.view(complex).T  # (1, T2)
    dz, dk_bar = z1 - z2, (k2 - k1).conj()
    with np.errstate(over="ignore"):  # s near its floor: the damping is inf, exp(-inf) = 0 exact
        damping = (0.125 / a) * (dk_bar * dk_bar.conj()).real
    exponent = (-0.5 * a) * (dz * dz.conj()).real - damping + 0.5j * (dk_bar * (z1 + z2)).real
    return psi.coeffs.conj().T @ (np.exp(exponent) @ phi.coeffs) / psi.s


def _pairings(
    psis: Sequence[GaussianSection], phis: Sequence[GaussianSection], radius: int
) -> np.ndarray:
    """Coefficients ``<psi_i . gamma, phi_j>_{L^2}`` of ``module_inner(psi_i, phi_j, radius)``.

    Returns a ((2R+1)^2, len(psis), len(phis)) array: entry (p, i, j) is
    the pairing at the point p of ``ball_points(radius)``.  The psis, pooled,
    are translated to every ball point in one ``_translates`` broadcast,
    and each point makes one ``l2_inner`` call against the pooled phis,
    which returns that point's whole matrix.
    """
    if radius < 1:
        raise ValueError(f"truncation radius must be positive, got {radius}")
    fixed = _pool(phis)
    moved = _translates(_pool(psis), *ball_coordinates(radius))
    return np.array([l2_inner(pool, fixed) for pool in moved])


def module_inner(psi: GaussianSection, phi: GaussianSection, radius: int) -> AlgebraElement:
    """Algebra-valued inner product truncated to the sup-norm ball.

    Coefficient at gamma is ``<psi . gamma, phi>_{L^2}``, the 1 x 1 case of
    ``_pairings`` read in ``ball_points`` (lexicographic) order, so the
    output is bit-stable; zero coefficients are dropped.  Dropped-tail size
    is of order exp(-(pi s / 2) R^2).
    """
    column = _pairings([psi], [phi], radius)[:, 0, 0]
    return AlgebraElement(dict(zip(ball_points(radius), column.tolist())))


def _gram_upper(
    sections: Sequence[GaussianSection], cocycle, s: float, radius: int, rep_radius: int
) -> np.ndarray:
    """Blocks i <= j of [rep(<psi_i|psi_j>)] in a Fortran-order array, lower blocks zero.

    Block (i, j) has entry ``<psi_i|psi_j>(r - c) sigma_s(r - c, c)`` at
    points r, c of the ``rep_radius`` ball.  Every hop r - c lies in the
    ball of radius 2 rep_radius, so the pairings are formed on the radius
    ``reach = min(radius, 2 rep_radius)`` only: no coefficient beyond it is
    read.  One ``_pairings`` call forms them all, one k x k matrix per
    point, so k sections take one translation batch and (2 reach+1)^2
    ``l2_inner`` calls.  The twist table ``sigma_s(r - c, c)`` is one
    ``regular_representation`` of the reach ball's indicator (no term dropped); each
    block is the (i, j) pairings gathered at r - c times that table, written
    straight into the array.  That is the regular representation of those
    pairings bit for bit: a table entry is 1.0 times the twist, the product
    keeps its operand order (numpy's complex product does not commute to
    the bit), and an entry whose coefficient is zero, a term the element
    does not have, stays +0 (0 times a twist can be -0).  Raises ValueError
    on no sections, on a section whose width is not the twist s (the
    pairing acts with the section's own width), or on a radius below 1,
    before the twist table is built.
    """
    if not sections:
        raise ValueError("no sections to pair")
    for psi in sections:
        if psi.s != s:
            raise ValueError(f"section width s = {psi.s!r} differs from the twist s = {s!r}")
    if radius < 1:
        raise ValueError(f"truncation radius must be positive, got {radius}")
    reach = min(radius, 2 * rep_radius)
    indicator = AlgebraElement(dict.fromkeys(ball_points(reach), 1.0))
    twist = regular_representation(indicator, cocycle, s, rep_radius)
    n, m = ball_coordinates(rep_radius)
    dn, dm = n[:, None] - n, m[:, None] - m
    # r - c as a point of the reach ball, or -1 (a zero appended to the
    # pairings) where it leaves the ball
    hop = np.where((np.abs(dn) <= reach) & (np.abs(dm) <= reach), ball_index(dn, dm, reach), -1)
    k, dim = len(sections), len(n)
    pairings = np.append(_pairings(sections, sections, reach), np.zeros((1, k, k)), axis=0)
    big = np.zeros((k * dim, k * dim), dtype=complex, order="F")
    for i in range(k):
        for j in range(i, k):
            coeffs = pairings[hop, i, j]
            block = big[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim]
            np.multiply(coeffs, twist, out=block)
            block[coeffs == 0] = 0.0
    return big


_BISECTION_TOL = 2 * np.finfo(float).tiny  # stebz ABSTOL: its most accurate value


def gram_positivity(
    sections: Sequence[GaussianSection],
    cocycle,
    s: float,
    radius: int,
    rep_radius: int,
) -> dict:
    """Extreme eigenvalues of the Gram matrix [rep(<psi_i|psi_j>)]; report PSD data.

    The block matrix is the compression of a positive element, so its
    smallest eigenvalue must not dip below roundoff plus the Gaussian
    truncation tail, ``tail_bound`` at ``radius``.  ``_gram_upper`` forms
    the blocks i <= j (and raises its ValueErrors); LAPACK ``zhetrd``
    reduces that upper triangle in place to a real tridiagonal matrix (the
    zero lower blocks are never read), and Sturm-count bisection
    (``stebz``) locates eigenvalue 0 and eigenvalue n - 1 of it by index:
    the reported minimum and maximum are the smallest and the largest by
    count, without the rest of the spectrum.  ValueError, naming s, if a
    tridiagonal entry squared overflows (entries grow like 1 / s: s below
    about 6e-154), where stebz fails or splits the matrix wrongly.
    """
    big = _gram_upper(sections, cocycle, s, radius, rep_radius)
    dim = len(big)
    hetrd, hetrd_lwork = la.get_lapack_funcs(("hetrd", "hetrd_lwork"), (big,))
    lwork, _ = hetrd_lwork(dim, lower=0)  # a failed query shows in hetrd's info
    _, diag, off, _, info = hetrd(big, lower=0, lwork=int(lwork.real), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zhetrd of the Gram matrix failed with info = {info}")
    peak = float(np.abs(np.append(diag, off)).max())
    if not math.isfinite(peak * peak):  # stebz squares the entries; a NaN fails here too
        raise ValueError(
            f"Gram matrix at width s = {s!r} is out of the eigensolver's range: "
            "its entries, near 1 / s, overflow when squared"
        )
    lowest, highest = (
        la.eigvalsh_tridiagonal(
            diag, off, select="i", select_range=(e, e), check_finite=False, tol=_BISECTION_TOL
        )[0]
        for e in (0, dim - 1)
    )
    return {
        "sections": len(sections),
        "dimension": dim,
        "min_eigenvalue": float(lowest),
        "max_eigenvalue": float(highest),
        "tail_bound": math.exp(-(math.pi * s / 2.0) * radius**2),
    }
