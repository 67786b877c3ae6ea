"""Regenerate reference/norm_profile.json, the dense norms the norm-profile checks use.

    python3 perfbench/make_references.py

For each s of the CLI's default grid, builds the compression of the Harper
element [u] + [u]* + [v] + [v]* to the sup-norm ball of the workload's radius directly
from the twist exp(i s kappa (m n' - n m')), without quantlab, and takes the
largest |eigenvalue| of that Hermitian matrix with a dense solver (about
0.4 s per s value at R = 15, 5 s at R = 25).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads

KAPPA = math.pi  # the CLI's default --kappa
S_GRID = [round(0.1 * k, 1) for k in range(11)]  # the CLI's default --s-grid
HOPS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # support of the Harper element, coefficients 1
OUTPUT = Path(__file__).resolve().parent / "reference" / "norm_profile.json"


def harper_compression(s: float, radius: int) -> np.ndarray:
    side = 2 * radius + 1
    n, m = (a.ravel() for a in np.meshgrid(np.arange(-radius, radius + 1), np.arange(-radius, radius + 1), indexing="ij"))
    matrix = np.zeros((side * side, side * side), dtype=complex)
    for hn, hm in HOPS:
        tn, tm = n + hn, m + hm
        inside = (np.abs(tn) <= radius) & (np.abs(tm) <= radius)
        rows = (tn[inside] + radius) * side + (tm[inside] + radius)
        cols = np.flatnonzero(inside)
        matrix[rows, cols] += np.exp(1j * s * KAPPA * (hm * n[inside] - hn * m[inside]))
    return matrix


def main() -> None:
    radius = workloads.NORM_RADIUS
    norms = []
    for s in S_GRID:
        matrix = harper_compression(s, radius)
        if np.abs(matrix - matrix.conj().T).max() > 1e-14:
            raise RuntimeError(f"compression at s={s} is not Hermitian")
        norms.append(float(np.abs(np.linalg.eigvalsh(matrix)).max()))
        print(f"s={s}: {norms[-1]!r}", flush=True)
    payload = {"element": "harper", "kappa": KAPPA, "radius": radius, "s_grid": S_GRID, "norms": norms}
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()
