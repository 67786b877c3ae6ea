"""Output checks of the quantlab benchmark.

The checks run after the timed phase, in the benchmark's own process, and
never call quantlab: slopes are refitted, closed forms and bounds recomputed
and norms compared with stored dense references.  Floats are compared with
the repository's pinned tolerances, never as bytes.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from pathlib import Path

import workloads as wl

REFERENCE = Path(__file__).resolve().parent / "reference" / "norm_profile.json"

# Checks that fail at the parent commit because of a documented program
# defect: ARPACK svds(k=1) in algebra.norm_estimate stops below the top of
# the clustered Hofstadter band (ROADMAP open item 2).  They count as failed
# checks in check_pass_frac but do not mark the run incorrect.
KNOWN_DEFECTS = frozenset(f"norm-profile s={s}" for s in ("0.1", "0.3", "0.7", "0.9"))

SLOPE_GATES = {  # acceptance criterion 07
    "product-defect-decay": -0.5,
    "commutator-defect-decay": -1.5,
    "first-order-defect-decay": -1.5,
}
SLOPE_FLOOR = 1e-14  # values at or below it carry no decay information
TRACE_LIMIT = 1e-12
WEYL_TOL = 1e-8
NORM_RTOL = 1e-10
COCYCLE_TOL = 1e-10
VACUUM_TOL = 1e-10
MIN_EIGENVALUE = -1e-9
SLACK = 0.1  # the CLI's default spectral slack


def _rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def _split_csv_json(text: str) -> tuple[str, dict]:
    """A CSV block followed by one top-level JSON object, as cocycle-check prints."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.rstrip("\n") == "{")
    return "".join(lines[:start]), json.loads("".join(lines[start:]))


def loglog_slope(ns, values, floor: float = SLOPE_FLOOR) -> float:
    """Least-squares slope of log(value) on log(n) over values above ``floor``."""
    pts = [(math.log(n), math.log(v)) for n, v in zip(ns, values) if v > floor]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def _defect_bounds(path: Path, other: Path) -> dict[str, tuple[float, float]]:
    """l1 bounds ``a + b / n`` on the three product defects of two symbols at flux ``n``.

    A compression has norm at most sup|f| <= ||f||_1, so each defect is at most
    2 ||f||_1 ||g||_1 plus the l1 norm of its 1/n correction term.
    """
    f, g = (json.loads(p.read_text())["modes"] for p in (path, other))
    pairs = [(a, b) for a in f for b in g]

    def l1(weight):
        return sum(
            abs(weight(a["j"], a["k"], b["j"], b["k"]))
            * abs(complex(a["re"], a["im"]))
            * abs(complex(b["re"], b["im"]))
            for a, b in pairs
        )

    base = 2.0 * l1(lambda *_: 1.0)
    bracket = l1(lambda j1, k1, j2, k2: 2.0 * math.pi * (j1 * k2 - k1 * j2))
    gradient = l1(lambda j1, k1, j2, k2: math.pi * complex(j1, -k1) * complex(j2, k2))
    return {
        "product-defect-decay": (base, 0.0),
        "commutator-defect-decay": (base, bracket),
        "first-order-defect-decay": (base, gradient),
    }


def _check_sweep(label: str, text: str, symbols: tuple[Path, Path] | None) -> list[tuple[str, bool]]:
    rows = _rows(text)
    out = []
    bounds = _defect_bounds(*symbols) if symbols else None
    by_claim: dict[str, list[dict]] = {}
    for row in rows:
        by_claim.setdefault(row["claim"], []).append(row)
    expected = [(n, 8 * n) for n in wl.SWEEP_RUNGS]
    rungs_ok = set(by_claim) == set(SLOPE_GATES) | {"trace-limit"} and all(
        [(int(r["N"]), int(r["M"])) for r in claim_rows] == expected
        for claim_rows in by_claim.values()
    )
    out.append((f"{label} rungs", rungs_ok))
    if not rungs_ok:
        return out
    for claim, claim_rows in by_claim.items():
        ns = [int(r["N"]) for r in claim_rows]
        values = [float(r["defect"]) for r in claim_rows]
        finite = all(math.isfinite(v) and v >= 0.0 for v in values)
        refit = [loglog_slope(ns[: i + 1], values[: i + 1]) for i in range(len(ns))]
        reported = [float(r["fitted_slope_so_far"]) for r in claim_rows]
        out.append(
            (
                f"{label} {claim} slopes refit",
                finite and all(abs(a - b) <= 1e-9 for a, b in zip(refit, reported)),
            )
        )
        if claim == "trace-limit":
            out.append((f"{label} trace-limit <= {TRACE_LIMIT:g}", max(values) <= TRACE_LIMIT))
        elif bounds is None:
            gate = SLOPE_GATES[claim]
            out.append((f"{label} {claim} slope <= {gate}", finite and refit[-1] <= gate))
        else:
            a, b = bounds[claim]
            within = all(v <= a + b / n for n, v in zip(ns, values))
            out.append((f"{label} {claim} within l1 bound", finite and within))
    return out


def _check_spectral(n: int, payload: dict) -> list[tuple[str, bool]]:
    cross = payload["index_crosscheck"]
    if n == 0:
        flagged = cross["flat_case_flagged"] is True and cross["match"] is False
        return [("spectral N=0 flat case flagged", flagged)]
    gap, parametrix = payload["gap_degree1"], payload["parametrix_norm"]
    bound = (1.0 - SLACK) * n
    return [
        (f"spectral N={n} kernel_dim", payload["kernel_dim"] == n),
        (f"spectral N={n} index match", cross["match"] is True and cross["kernel_dim"] == n),
        (f"spectral N={n} gap", math.isfinite(gap) and gap >= bound),
        (f"spectral N={n} parametrix", math.isfinite(parametrix) and parametrix <= bound**-0.5),
    ]


def _check_weyl(text: str) -> list[tuple[str, bool]]:
    rows = _rows(text)
    lo, hi = wl.WEYL_FLUX
    out = [("weyl rungs", [int(r["N"]) for r in rows] == list(range(lo, hi + 1)))]
    for r in rows:
        n = int(r["N"])
        z = complex(float(r["re"]), float(r["im"]))
        dev = min(abs(z - cmath.exp(2j * math.pi / n)), abs(z - cmath.exp(-2j * math.pi / n)))
        out.append((f"weyl N={n} deviation", dev <= WEYL_TOL))
    return out


def _check_norms(text: str) -> list[tuple[str, bool]]:
    ref = json.loads(REFERENCE.read_text())
    rows = _rows(text)
    grid = [float(r["s"]) for r in rows]
    out = [("norm-profile s-grid", ref["radius"] == wl.NORM_RADIUS and grid == ref["s_grid"])]
    for r, expected in zip(rows, ref["norms"]):
        value = float(r["norm"])
        ok = math.isfinite(value) and abs(value - expected) <= NORM_RTOL * expected
        out.append((f"norm-profile s={r['s']}", ok))
    return out


def _check_cocycle(potential: str, text: str) -> list[tuple[str, bool]]:
    csv_text, payload = _split_csv_json(text)
    omega = 2.0 * math.pi  # the CLI's default omega0
    if potential == "symmetric":
        def closed(n1, m1, n2, m2):
            return omega / 2.0 * (m1 * n2 - n1 * m2)
    else:  # Landau gauge A = omega x dy: phi_(n,m) = -omega n y, c = -omega n1 m2
        def closed(n1, m1, n2, m2):
            return -omega * n1 * m2
    worst, pairs = 0.0, 0
    for row in csv.reader(io.StringIO(csv_text)):
        if row[0] != "cocycle-value":
            continue
        n1, m1, n2, m2 = (int(v) for v in row[1:5])
        worst = max(worst, abs(float(row[5]) - closed(n1, m1, n2, m2)))
        pairs += 1
    side = 2 * wl.COCYCLE_RADIUS + 1
    residual = max(payload["constancy_residual"], payload["identity_residual"])
    return [
        (f"cocycle {potential} residuals", residual <= COCYCLE_TOL),
        (f"cocycle {potential} closed form", pairs == side**4 and worst <= COCYCLE_TOL),
    ]


def _check_gram(argv: list[str], payload: dict) -> list[tuple[str, bool]]:
    min_ok = payload["min_eigenvalue"] >= MIN_EIGENVALUE
    if "--sections" not in argv:
        dev = payload["vacuum_coefficient_deviation"]
        return [
            ("module-gram vacuum coefficients", dev is not None and dev <= VACUUM_TOL),
            ("module-gram vacuum min eigenvalue", min_ok),
        ]
    tail = math.exp(-(math.pi * wl.SECTION_S / 2.0) * wl.GRAM_RADIUS**2)
    shape_ok = (
        payload["dimension"] == wl.SECTION_COUNT * (2 * wl.GRAM_REP_RADIUS + 1) ** 2
        and math.isclose(payload["tail_bound"], tail, rel_tol=1e-12)
    )
    return [
        ("module-gram sections shape", shape_ok),
        ("module-gram sections min eigenvalue", min_ok),
    ]


def _check_one(argv: list[str], text: str, input_dir: Path) -> list[tuple[str, bool]]:
    command = argv[0]
    if command == "toeplitz-sweep":
        pair = argv[argv.index("--fg") + 1]
        if pair == wl.PAPER_PAIR:
            return _check_sweep("paper pair", text, None)
        return _check_sweep("seeded pair", text, tuple(input_dir / p for p in pair.split(",")))
    if command == "spectral":
        return _check_spectral(int(argv[argv.index("--n-flux") + 1]), json.loads(text))
    if command == "weyl":
        return _check_weyl(text)
    if command == "algebra":
        return _check_norms(text)
    if command == "cocycle-check":
        return _check_cocycle(argv[argv.index("--potential") + 1], text)
    if command == "module-gram":
        return _check_gram(argv, json.loads(text))
    raise ValueError(f"no checks for command {command!r}")


def check(plan: list[list[str]], texts: list[str], codes: list, input_dir: Path) -> list[tuple[str, bool]]:
    """(name, passed) for every check of one workload repetition.

    Each invocation contributes an exit check, which a raised exception or
    a non-zero exit code fails; output that cannot be read adds one failed
    check in place of that invocation's output checks.
    """
    results = []
    for argv, text, code in zip(plan, texts, codes):
        label = " ".join(argv[:3])
        results.append((f"exit {label}", code == 0))
        try:
            results.extend(_check_one(argv, text, input_dir))
        except (ValueError, KeyError, IndexError, StopIteration, TypeError) as exc:
            results.append((f"output {label}: {type(exc).__name__}: {exc}", False))
    return results


def run_is_correct(results: list[tuple[str, bool]]) -> bool:
    return all(ok or name in KNOWN_DEFECTS for name, ok in results)
