"""Workloads of the quantlab benchmark and the seeded inputs they read.

Each workload is a list of ``quantlab.cli.main`` argument vectors run in one
fresh process.  The seed reaches the program only through the files written
by ``write_inputs``: the random symbol pair of ``flux-sweep`` and the Gaussian
sections of ``lattice-pairings``.  Everything else is fixed where the paper
fixes it (see README.md for why ``norm-profile`` and the paper pair stay fixed).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("flux-sweep", "spectral-session", "norm-profile", "lattice-pairings")

# flux-sweep: rungs N = 4, 7, 9 on grids M = 8N.  N = 4 takes the dense SVD
# path (dimension 1024), N = 7 and 9 the sparse shift-invert path (up to 5184).
SWEEP_RUNGS = (4, 7, 9)
PAPER_PAIR = "cos2pix,cos2piy"
SYMBOL_DEGREE = 2

# spectral-session: small grids, the fluxless operator and degree-1 spectra.
SPECTRAL_FLUX = (1, 2, 3)
FLUXLESS_GRID = 20
WEYL_FLUX = (2, 3)  # the grids of the spectral reports, so the kernels are reused

# norm-profile: the CLI's default 11-point s-grid at R = 13.  R = 25 takes
# 28-34 s a repetition; at R = 10 and 20 ARPACK fails to converge at s = 0.1.
NORM_RADIUS = 13

# lattice-pairings
COCYCLE_RADIUS = 7
SECTION_COUNT = 4
SECTION_TERMS = 6
SECTION_S = 1.5
GRAM_RADIUS = 8
GRAM_REP_RADIUS = 6

SYMBOL_FILES = ("f.json", "g.json")
SECTIONS_FILE = "sections.jsonl"


def random_symbol(rng: random.Random) -> dict:
    """A real trigonometric polynomial with modes |j|, |k| <= 2, in the CLI's JSON form."""
    modes = [{"j": 0, "k": 0, "re": rng.uniform(-0.5, 0.5), "im": 0.0}]
    for j in range(SYMBOL_DEGREE + 1):
        for k in range(-SYMBOL_DEGREE, SYMBOL_DEGREE + 1):
            if (j, k) <= (0, 0):
                continue  # one mode of each conjugate pair, (j, k) > (0, 0)
            re, im = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            modes.append({"j": j, "k": k, "re": re, "im": im})
            modes.append({"j": -j, "k": -k, "re": re, "im": -im})
    return {"modes": modes}


def random_section(rng: random.Random) -> list[dict]:
    """Gaussian-term records of one section, in the CLI's JSON form."""
    return [
        {
            "re": rng.uniform(-1.0, 1.0),
            "im": rng.uniform(-1.0, 1.0),
            "mux": rng.uniform(-0.5, 0.5),
            "muy": rng.uniform(-0.5, 0.5),
            "kx": rng.uniform(-2.0, 2.0),
            "ky": rng.uniform(-2.0, 2.0),
            "s": SECTION_S,
        }
        for _ in range(SECTION_TERMS)
    ]


def input_texts(seed: int) -> dict[str, str]:
    """File name -> content of every generated input; equal seeds give equal bytes."""
    rng = random.Random(seed)
    texts = {name: json.dumps(random_symbol(rng)) + "\n" for name in SYMBOL_FILES}
    texts[SECTIONS_FILE] = "".join(
        json.dumps(random_section(rng)) + "\n" for _ in range(SECTION_COUNT)
    )
    return texts


def write_inputs(seed: int, directory: Path) -> str:
    """Write the inputs of ``seed`` into ``directory``; return their SHA-256 digest."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name, text in sorted(input_texts(seed).items()):
        (directory / name).write_text(text)
        digest.update(name.encode() + b"\0" + text.encode())
    return digest.hexdigest()


def plan(workload: str) -> list[list[str]]:
    """CLI argument vectors of ``workload``; input files are named relative to the input directory."""
    if workload == "flux-sweep":
        rungs = ",".join(map(str, SWEEP_RUNGS))
        sweep = ["toeplitz-sweep", "--N", rungs, "--samples", str(len(SWEEP_RUNGS))]
        return [
            sweep + ["--fg", PAPER_PAIR],
            sweep + ["--fg", ",".join(SYMBOL_FILES)],
        ]
    if workload == "spectral-session":
        runs = [
            ["spectral", "--n-flux", str(n), "--grid", str(max(16, 8 * n))]
            for n in SPECTRAL_FLUX
        ]
        runs.append(["spectral", "--n-flux", "0", "--grid", str(FLUXLESS_GRID)])
        runs.append(["weyl", "--N", "%d..%d" % WEYL_FLUX])
        return runs
    if workload == "norm-profile":
        return [["algebra", "--mode", "norm-profile", "--a", "harper", "--radius", str(NORM_RADIUS)]]
    if workload == "lattice-pairings":
        return [
            ["cocycle-check", "--radius", str(COCYCLE_RADIUS), "--potential", "symmetric"],
            ["cocycle-check", "--radius", str(COCYCLE_RADIUS), "--potential", "landau"],
            ["module-gram"],
            [
                "module-gram",
                "--s", str(SECTION_S),
                "--radius", str(GRAM_RADIUS),
                "--rep-radius", str(GRAM_REP_RADIUS),
                "--sections", SECTIONS_FILE,
            ],
        ]
    raise ValueError(f"unknown workload {workload!r}; choices: {WORKLOADS}")
