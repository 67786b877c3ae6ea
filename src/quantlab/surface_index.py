"""Closed-form index and trace values for quantized surfaces.

For a genus-g surface with ``vol = integral of omega / 2 pi`` the index of
the twisted Dolbeault operator expands as

    s * vol + (1 - g),

the linear Todd term contributing 1 - g and the exponential term s * vol.
On the torus (g = 1, vol = 1) at integer s = N this is the flux count N;
under the genus-g normalization vol = g - 1 it reduces to (s - 1)(g - 1),
the Natsume-Nest trace value, so ``l2_index(g, g - 1, s)`` is that value
too (the tests check it against the polynomial written out).
"""

from __future__ import annotations

import math

from .dolbeault import build_dolbeault, kernel_dimension


def l2_index(genus: int, vol: float, s: float) -> float:
    if vol <= 0:
        raise ValueError("volume must be positive")
    if genus < 1:
        raise ValueError("genus must be >= 1")
    try:
        todd = 1.0 - genus
    except OverflowError:
        raise OverflowError(f"genus {genus} is too large for a float") from None
    if not math.isfinite(index := s * vol + todd):
        raise OverflowError(f"s vol + (1 - g) overflows a float at s = {s!r}, vol = {vol!r}, g = {genus}")
    return index


def numeric_index_crosscheck(n_flux: int, grid: int) -> dict:
    """Compare the lattice kernel dimension with the torus index formula.

    The kernel is counted in the Landau gauge; every gauge's kernel is the
    Landau one times a site phase.  ``match`` reports whether the count equals
    the rounded formula; ``quantlab spectral`` gates the count it prints.  At
    zero flux the formula counts the holomorphic Euler characteristic (0)
    while the lattice kernel holds the constants (1); that known flat-case
    discrepancy is flagged.
    """
    pair = build_dolbeault(n_flux, grid)
    dim = kernel_dimension(pair)
    formula = l2_index(genus=1, vol=1.0, s=float(n_flux))
    return {
        "n_flux": n_flux,
        "grid": grid,
        "kernel_dim": dim,
        "index_formula": formula,
        "match": dim == round(formula),
        "flat_case_flagged": n_flux == 0,
    }
