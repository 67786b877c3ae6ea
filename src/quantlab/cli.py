"""Batch command-line front door.

Every subcommand wraps public operations of the library, emits CSV for
sweeps and JSON for scalar reports, and tags each output row with the claim
it checks.  Outputs are deterministic for a fixed invocation: sweeps run
serially in input order, and floats are serialized with shortest
round-trip repr.  CSV cells are comma-joined and never quoted: every string
cell is a claim tag, a header name or a pre-joined integer label.

Exit codes: 0 success; 1 a gated claim past max(bound, ROUNDING eps scale) at
its own scale, its output printed (every claim gate is an ``algebra.gate_fails``
return of a handler here, none raises in the library; NaN fails; the ``--help``
text marks report-only subcommands), or a validity check or solver failed, or
a JSON result holds a number that is not finite, with a ``{"status": "failed",
...}`` record on stdout that names it; 2 a usage or
configuration error, with a ``usage-error`` or ``config-error`` record on
stdout: a bad option value (a ``ValueError``, a truncation radius below 1
included, a ``MemoryError`` when its arrays cannot be allocated, or an
``OverflowError`` naming an input too large for a float) or an unreadable
or malformed input file (an ``OSError``); 3 stdout closed before the output
was written (a reader such as ``head`` left early), with an ``output-closed``
record on stderr; argparse prints its own message for malformed command lines.
``--config`` values are option tokens the command line's parser checks.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import os
import sys
from typing import Iterable, Iterator

import numpy as np

# dolbeault first, so scipy.sparse.linalg loads before algebra's scipy.linalg:
# perfbench's setup_s read `import quantlab.cli` 6-11 % slower in the other order
from .dolbeault import (
    GAUGES,
    build_dolbeault,
    kernel_basis,
    spectral_report,
    weitzenbock_residual,
)
from . import algebra, cocycle, sections, surface_index, toeplitz
from .errors import ConfigError, QuantLabError

def _parse_range(text: str) -> list[int]:
    """'4..32' -> inclusive integer range; '4,8,16' -> explicit list; empty is an error."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(part) for part in text.split(",") if part]
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def _finite_float(text: str) -> float:
    """Float option value; NaN or +-inf would switch off the gate or check it feeds."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Integer option value of at least 1; a grid rule below 1 pins max(16, rule * N) to 16."""
    value = int(text)
    if value < 1:
        raise ValueError(f"not a positive integer: {text!r}")
    return value


def _subsample(values: list[int], count: int) -> list[int]:
    """At most ``count`` >= 1 distinct ``values``, ascending, nearest a geometric spacing min to max."""
    values = sorted(set(values))
    if count >= len(values):
        return values
    picks = np.unique(np.round(np.geomspace(min(values), max(values), count)).astype(int))
    return sorted({min(values, key=lambda v: abs(v - p)) for p in picks})


@contextlib.contextmanager
def _target(path: str | None):
    """The file at ``path`` opened for writing, else ``sys.stdout`` as bound at call time."""
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_rows(path: str | None, header: list[str], rows: Iterable) -> None:
    """Write ``header`` and ``rows`` to ``path`` (else stdout) as comma-joined lines.

    Floats are written as ``repr(float(v))`` and other cells with ``str``.
    Cells are never quoted: every string cell is a claim tag, a header name or
    an integer label joined ahead of time, such as ``cocycle-check``'s ``"n,m"``.
    A row given as a ``str`` is whole lines, each ending in a newline, that
    the caller formatted by this rule; it is written as it is.
    """
    with _target(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
                continue
            cells = [repr(float(v)) if isinstance(v, float) else str(v) for v in row]
            fh.write(",".join(cells) + "\n")


def _non_finite(value, name: str = "") -> list[str]:
    """The "name = value" of each float in a JSON payload of dicts and lists that is not finite."""
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [bad for key, item in items for bad in _non_finite(item, f"{name}.{key}".lstrip("."))]
    return [f"{name} = {value!r}"] if isinstance(value, float) and not math.isfinite(value) else []


def _emit_json(path: str | None, payload: dict) -> None:
    """Write ``payload`` as JSON; a number that is not finite fails, named, with nothing written."""
    if bad := _non_finite(payload):
        raise QuantLabError(f"result not finite: {', '.join(bad)}")
    text = json.dumps(payload, indent=2, sort_keys=True, default=repr, allow_nan=False)
    with _target(path) as fh:
        fh.write(text + "\n")


def _load_element(spec_text: str) -> algebra.AlgebraElement:
    if spec_text == "harper":
        return algebra.harper_element(algebra.KappaCocycle(), 0.0)
    if os.path.exists(spec_text):
        with open(spec_text) as fh:
            return algebra.AlgebraElement.from_json(fh.read())
    return algebra.AlgebraElement.from_json(spec_text)


def _load_symbol(name_or_path: str) -> toeplitz.TrigPolynomial:
    if name_or_path in toeplitz.NAMED_SYMBOLS:
        return toeplitz.NAMED_SYMBOLS[name_or_path]
    with open(name_or_path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "modes" not in data:
        raise ValueError(f"symbol file {name_or_path!r} must hold an object with a 'modes' list")
    fields = {"j": int, "k": int, "re": float, "im": float}
    rows = algebra.json_records(data["modes"], fields, defaults={"im": 0.0})
    return toeplitz.TrigPolynomial({(j, k): complex(re, im) for j, k, re, im in rows})


def _identity_residual(values: np.ndarray, radius: int) -> float:
    """Largest |c(g2,g3) - c(g1+g2,g3) + c(g1,g2+g3) - c(g1,g2)| over the half-radius ball.

    Triples whose sums leave the radius-R ball are skipped; one array
    expression over (g2, g3) per g1 bounds the work arrays.  A NaN value makes
    the residual NaN, which ``gate_fails`` (scale max |c|) fails.  ``ValueError``
    if a value is so large that a sum of four could overflow a float.
    """
    if max(values.max(), -values.min()) > sys.float_info.max / 4:
        raise ValueError("cocycle values too large to check the identity in floats")
    n, m = algebra.ball_coordinates(min(radius, max(1, radius // 2)))

    def index(dn, dm):  # positions of g + (dn, dm) in the radius-R ball, and which stay inside
        inside = (np.abs(n + dn) <= radius) & (np.abs(m + dm) <= radius)
        return np.where(inside, algebra.ball_index(n + dn, m + dm, radius), 0), inside

    k, _ = index(0, 0)
    k23, in23 = index(n[:, None], m[:, None])
    c23 = values[k[:, None], k]
    worst = 0.0
    for n1, m1, k1 in zip(n, m, k):
        k12, in12 = index(n1, m1)
        ident = c23 - values[k12[:, None], k] + values[k1, k23] - values[k1, k][:, None]
        worst = np.maximum(worst, np.abs(ident[in12[:, None] & in23]).max(initial=0.0))
    return float(worst)


def _row_reprs(values: np.ndarray) -> Iterator[np.ndarray]:
    """``repr`` of each float of the 2-D array ``values``, one object array per row.

    Each distinct value is formatted once.  Values are told apart by their
    bits, so 0.0 and -0.0, equal as floats, keep their own text.
    """
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    for row in index.reshape(values.shape):
        yield texts[row]


def _cmd_cocycle_check(args) -> int:
    gauge = cocycle.symmetric_gauge if args.potential == "symmetric" else cocycle.landau_gauge
    points, values, residual = cocycle.cocycle_grid(gauge(args.omega0), args.radius)
    # one ball point's lines in one join: "cocycle-value,n1,m1" + ",n2,m2," + repr(value)
    heads = [f"cocycle-value,{n},{m}" for n, m in points]
    cells = np.array([f",{n},{m}," for n, m in points], dtype=object)
    rows = (
        head + ("\n" + head).join(cells + texts) + "\n"
        for head, texts in zip(heads, _row_reprs(values))
    )
    closed_dev = None
    if args.potential == "symmetric":
        n, m = algebra.ball_coordinates(args.radius)
        closed = algebra.KappaCocycle(args.omega0 / 2.0)((n[:, None], m[:, None]), (n, m))
        closed_dev = float(np.abs(values - closed).max())
    identity_residual = _identity_residual(values, args.radius)
    _write_rows(args.output, ["claim", "n1", "m1", "n2", "m2", "value"], rows)
    _emit_json(
        None,
        {
            "claim": "cocycle-constancy-and-identity",
            "pairs": len(points) ** 2,
            "constancy_residual": residual,
            "identity_residual": identity_residual,
            "closed_form_deviation": closed_dev,
        },
    )
    return algebra.gate_fails([(identity_residual, np.abs(values).max())], 1e-10)


def _cmd_algebra(args) -> int:
    kc = algebra.KappaCocycle(args.kappa)
    a = _load_element(args.a)
    if args.mode == "mult":
        product = algebra.multiply(a, _load_element(args.b), kc, args.s)
        _emit_json(args.output, {"claim": "algebra-product", "result": json.loads(product.to_json())})
    elif args.mode == "trace":
        value = algebra.trace(a)
        _emit_json(args.output, {"claim": "algebra-trace", "re": value.real, "im": value.imag})
    elif args.mode == "norm":
        value = algebra.norm_estimate(a, kc, args.s, args.radius)
        _emit_json(
            args.output,
            {"claim": "algebra-norm", "norm": value, "radius": args.radius, "l1_bound": a.l1_norm()},
        )
    else:  # norm-profile
        grid = [_finite_float(v) for v in args.s_grid.split(",")]
        threshold = args.continuity_threshold
        if threshold is not None and threshold < 0:
            raise ValueError(f"continuity threshold must be at least 0, got {threshold!r}")
        profile = algebra.norm_profile(a, grid, kc, args.radius)
        rows = (["norm-continuity", s, norm] for s, norm in profile)
        _write_rows(args.output, ["claim", "s", "norm"], rows)
        if threshold is not None:  # each adjacent jump at most T
            jumps = [abs(n1 - n0) for (_, n0), (_, n1) in zip(profile, profile[1:])]
            return algebra.gate_fails([(jump, 0.0) for jump in jumps], threshold)
    return 0


def _cmd_module_gram(args) -> int:
    kc = algebra.KappaCocycle()
    if args.sections:
        with open(args.sections) as fh:
            secs = [sections.GaussianSection.from_json(line) for line in fh if line.strip()]
    else:
        secs = [sections.vacuum(args.s)]
    report = sections.gram_positivity(secs, kc, args.s, args.radius, args.rep_radius)
    vac_dev = None
    if not args.sections:
        gram = sections.module_inner(secs[0], secs[0], args.radius)
        vac_dev = max(
            abs(z - math.exp(-(math.pi * args.s / 2.0) * (n * n + m * m)) / args.s)
            for (n, m), z in gram.terms.items()
        )
    payload = {
        "claim": "module-gram-positivity",
        "min_eigenvalue": report["min_eigenvalue"],
        "max_eigenvalue": report["max_eigenvalue"],
        "dimension": report["dimension"],
        "tail_bound": report["tail_bound"],
        "vacuum_coefficient_deviation": vac_dev,
    }
    _emit_json(args.output, payload)
    scale = report["dimension"] * report["max_eigenvalue"]  # eigenvalue rounding grows like n
    return algebra.gate_fails([(-report["min_eigenvalue"], scale)], 1e-9)


def _cmd_spectral(args) -> int:
    pair = build_dolbeault(args.n_flux, args.grid, args.gauge)
    if not 0.0 < args.slack < 1.0:  # at slack >= 1 the gap bound is <= 0 and cannot fail
        raise ValueError("slack must lie in (0, 1)")
    rep = spectral_report(pair)
    resid = weitzenbock_residual(pair)
    cross = surface_index.numeric_index_crosscheck(args.n_flux, args.grid)
    if args.export_kernel:
        basis = kernel_basis(pair)  # one row per site, grid row-major
        header = [f"{part}{col}" for col in range(basis.shape[1]) for part in ("re", "im")]
        rows = np.stack([basis.real, basis.imag], axis=-1).reshape(basis.shape[0], -1)
        _write_rows(args.export_kernel, header, rows)
    payload = {
        "claim": "dolbeault-spectral-report",
        "kernel_dim": rep.kernel_dim,
        "gap_degree1": rep.gap_degree1,
        "parametrix_norm": rep.parametrix_norm,
        "curvature_commutator_residual": resid,
        "index_crosscheck": cross,
    }
    _emit_json(args.output, payload)
    # the index (N = 0 counts the constants) and the gap bound, judged exactly
    index_dev = abs(rep.kernel_dim - max(args.n_flux, 1))
    gap_dev = args.n_flux * (1.0 - args.slack) - rep.gap_degree1
    return algebra.gate_fails([(index_dev, 0.0), (gap_dev, 0.0)], 0.0)


# toeplitz-sweep claim -> key of a toeplitz.defect_sweep cell
_SWEEP_CLAIMS = {
    "product-defect-decay": "product",
    "commutator-defect-decay": "commutator",
    "first-order-defect-decay": "first_order",
    "trace-limit": "trace",
}


def _cmd_toeplitz_sweep(args) -> int:
    names = args.fg.split(",")
    if len(names) != 2 or "" in names:
        raise ValueError(f"--fg takes two symbols as 'f,g', got {args.fg!r}")
    f, g = (_load_symbol(name) for name in names)
    flux_values = _parse_range(args.N)
    if min(flux_values) < 1:
        raise ValueError(f"toeplitz-sweep needs flux N >= 1, got {min(flux_values)}")
    cells = [(n, max(16, args.grid_rule * n)) for n in _subsample(flux_values, args.samples)]
    defects = toeplitz.defect_sweep(f, g, cells)
    rows = []
    for claim, key in _SWEEP_CLAIMS.items():
        seen_n, seen_v = [], []
        for (n, grid), cell in zip(cells, defects):
            seen_n.append(n)
            seen_v.append(cell[key])
            rows.append([claim, n, grid, cell[key], toeplitz.fit_loglog_slope(seen_n, seen_v)])
    _write_rows(args.output, ["claim", "N", "M", "defect", "fitted_slope_so_far"], rows)
    return 0


def _cmd_weyl(args) -> int:
    rows = []
    for n in _parse_range(args.N):
        scalar = toeplitz.weyl_relation(n, max(16, args.grid_rule * n))
        dev = abs(scalar - cmath.exp(-2j * math.pi / n))
        rows.append(["weyl-scalar", n, scalar.real, scalar.imag, dev])
    _write_rows(args.output, ["claim", "N", "re", "im", "deviation"], rows)
    return algebra.gate_fails([(row[-1], 1.0) for row in rows], 1e-8)


def _cmd_bargmann(args) -> int:
    rows = []
    for j in _parse_range(args.j):
        for k in _parse_range(args.k):
            # the vacuum paired with e^{-2 pi i (jx + ky)} times the vacuum
            wave = sections.GaussianSection(args.s, [1], [[0, 0]], -math.tau * np.array([[j, k]]))
            value = sections.l2_inner(sections.vacuum(args.s), wave)
            closed = math.exp(-math.pi * (j * j + k * k) / args.s) / args.s
            dev = abs(value - closed)
            rows.append(["vacuum-fourier-overlap", j, k, value.real, value.imag, closed, dev])
    _write_rows(
        args.output, ["claim", "j", "k", "re", "im", "closed_form", "deviation"], rows
    )
    return algebra.gate_fails([(row[-1], row[-2]) for row in rows], 1e-8)  # at the closed form


def _cmd_heisenberg(args) -> int:
    report = sections.heisenberg_generator_check(args.s)
    scalar = report["group_commutator_scalar"]
    expected = report["group_commutator_expected"]
    payload = {
        "claim": "heisenberg-generators",
        "commutator_residual": report["commutator_residual"],
        "group_commutator": [scalar.real, scalar.imag],
        "expected": [expected.real, expected.imag],
        "scalar_deviation": abs(scalar - expected),
        "zero_mode_residual": report["zero_mode_residual"],
    }
    _emit_json(args.output, payload)
    keys = ("scalar_deviation", "commutator_residual", "zero_mode_residual")
    return algebra.gate_fails([(payload[key], 1.0) for key in keys], 1e-8)


def _cmd_index(args) -> int:
    vol = max(args.g - 1, 1) if args.vol is None else args.vol
    payload = {"claim": "surface-index", "l2_index": surface_index.l2_index(args.g, vol, args.s)}
    _emit_json(args.output, payload)
    return 0


@functools.cache  # every `main` call of a process parses with one parser; a build takes 1-2 ms
def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    """The CLI's parser; ``exit_on_error=False`` gives ``--config``'s, raising on a bad value."""
    parser = argparse.ArgumentParser(
        prog="quantlab",
        description="flat-torus quantization laboratory: cocycles, twisted algebras, "
        "magnetic spectra, Toeplitz asymptotics, index checks",
        exit_on_error=exit_on_error,
    )
    parser.add_argument("--config", help="JSON file overriding subcommand options")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cocycle-check", help="derive the cocycle and check identities")
    p.add_argument("--potential", default="symmetric", choices=("symmetric", "landau"))
    p.add_argument("--omega0", type=_finite_float, default=2.0 * math.pi)
    p.add_argument("--radius", type=int, default=3)
    p.set_defaults(func=_cmd_cocycle_check)

    p = sub.add_parser(
        "algebra",
        help="twisted algebra arithmetic and norms (report-only, except the norm-profile "
        "--continuity-threshold)",
    )
    p.add_argument("--mode", required=True, choices=("mult", "trace", "norm", "norm-profile"))
    p.add_argument("--a", default="harper", help="element JSON (inline or path) or 'harper'")
    p.add_argument("--b", default="harper")
    p.add_argument("--s", type=_finite_float, default=0.5)
    p.add_argument("--kappa", type=_finite_float, default=math.pi)
    p.add_argument("--radius", type=int, default=20)
    p.add_argument("--s-grid", default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--continuity-threshold", type=_finite_float, default=None)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("module-gram", help="module inner products and positivity")
    p.add_argument("--s", type=_finite_float, default=2.0)
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--rep-radius", type=int, default=6)
    p.add_argument("--sections", help="path with one section JSON per line")
    p.set_defaults(func=_cmd_module_gram)

    p = sub.add_parser(
        "spectral",
        help="lattice Dolbeault spectra: gates kernel_dim = max(N, 1) and degree-1 gap >= "
        "N (1 - slack); curvature_commutator_residual is report-only",
    )
    p.add_argument("--n-flux", type=int, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--gauge", default="landau", choices=GAUGES)
    p.add_argument("--slack", type=_finite_float, default=0.1)
    p.add_argument("--export-kernel", help="write the kernel basis as CSV (re/im columns)")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("toeplitz-sweep", help="defect decay sweep over the flux (report-only)")
    p.add_argument("--fg", default="cos2pix,cos2piy", help="two symbols, comma separated")
    p.add_argument("--N", default="4..32")
    p.add_argument("--samples", type=_positive_int, default=7, help="flux values kept, >= 1")
    p.add_argument("--grid-rule", type=_positive_int, default=8, help="grid = max(16, rule * N)")
    p.set_defaults(func=_cmd_toeplitz_sweep)

    p = sub.add_parser("weyl", help="noncommutative-torus scalar of the polar factors")
    p.add_argument("--N", default="2..12")
    p.add_argument("--grid-rule", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("bargmann", help="vacuum Fourier overlaps vs the closed form")
    p.add_argument("--j", default="0..3")
    p.add_argument("--k", default="0..3")
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_bargmann)

    p = sub.add_parser("heisenberg", help="magnetic-translation group commutator on sections")
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_heisenberg)

    p = sub.add_parser("index", help="closed-form surface index and trace values (report-only)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--vol", type=_finite_float, default=None)
    p.set_defaults(func=_cmd_index)

    for p in sub.choices.values():  # after each subcommand's own options, as --help lists them
        p.add_argument("--output")
        p.exit_on_error = exit_on_error
    return parser


def _parse_with_config(argv: list[str], args) -> argparse.Namespace:
    """Parse ``argv`` again with the ``--config`` overrides appended as option tokens.

    Each key names an option of the chosen subcommand as the parse ``args``
    names it, with ``-`` read as ``_`` (``rep-radius`` or ``rep_radius``).  Its
    value becomes the token ``--dest=value``, ``_`` written ``-``, after the
    options already given, so it overrides them and is checked by the option's
    own ``type`` and ``choices`` on ``build_parser(exit_on_error=False)``.
    """
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(overrides, dict):
        raise ConfigError("config must be a JSON object")
    dests = set(vars(args)) - {"command", "func", "config"}
    tokens = []
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in dests:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigError(f"config key {key!r} must be a number or a string")
        tokens.append(f"--{dest.replace('_', '-')}={value}")
    try:  # a parser that raises, so the error gets a record
        return build_parser(exit_on_error=False).parse_args(argv + tokens)
    except argparse.ArgumentError as exc:
        raise ConfigError(f"config: {exc}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = _parse_with_config(argv, args)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError as exc:
        # the reader left early (`| head`): point the stdout descriptor at the
        # null device, so the interpreter's last flush of the output it never
        # read cannot fail again, and report on stderr
        with contextlib.suppress(OSError, ValueError):  # no descriptor when stdout is captured
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _report_error("output-closed", exc, 3, sys.stderr)
    except ConfigError as exc:
        return _report_error("config-error", exc, 2)
    except QuantLabError as exc:
        return _report_error("failed", exc, 1)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        # a bad option value (a radius below 1, an array too large to allocate,
        # an int too large for a float), or an unreadable or malformed input file
        return _report_error("usage-error", exc, 2)


def _report_error(status: str, exc: Exception, code: int, stream=None) -> int:
    """Print the error record to ``stream`` (else stdout) and return ``code``."""
    record = {"status": status, "error": type(exc).__name__, "message": str(exc)}
    text = json.dumps(record, indent=2, sort_keys=True)
    with contextlib.suppress(OSError):  # a closed stream keeps the exit code
        print(text, file=stream or sys.stdout, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
