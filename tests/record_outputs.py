"""The output record of the benchmark's CLI invocations, and the script that rewrites it.

Usage: python tests/record_outputs.py

Runs every ``perfbench/workloads.plan`` invocation at seeds 1 and 2 in this
process, with the seed's generated input files in a temporary directory, and
writes ``tests/output_record.json``: per invocation the argv, the exit code,
the SHA-256 of its standard output and the numbers it printed, as printed
(JSON leaves as ``json.dumps`` writes them, so floats as ``repr``; CSV cells
as written).  A CSV body of more than ``CSV_CELL_ROWS`` rows goes in by its
SHA-256 and line count alone.  ``test_output_identity.py`` reruns the
invocations and compares; an intended output change rewrites the record with
this script, and the change names every entry that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from quantlab import cli  # noqa: E402

RECORD = Path(__file__).resolve().parent / "output_record.json"
SEEDS = (1, 2)
CSV_CELL_ROWS = 64  # cocycle-check's 225^2 rows go in by hash


def invocations() -> list[tuple[int, str, list[str]]]:
    """(seed, workload, argv) of every plan invocation, in plan order."""
    return [
        (seed, workload, argv)
        for seed in SEEDS
        for workload in workloads.WORKLOADS
        for argv in workloads.plan(workload)
    ]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of ``cli.main(argv)`` in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _json_leaves(value, name: str):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, f"{name}.{key}" if name else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _json_leaves(item, f"{name}[{index}]")
    else:
        yield name, json.dumps(value)


def numbers(stdout: str) -> dict[str, str]:
    """Field name -> printed text of every number and tag in ``stdout``.

    A JSON payload, alone or after a CSV body, starts at a line "{".  CSV cells
    are named "r<row>.<header>"; JSON leaves by their dotted path.
    """
    start = 0 if stdout.startswith("{") else stdout.find("\n{\n") + 1 or len(stdout)
    body, payload = stdout[:start], stdout[start:]
    fields: dict[str, str] = {}
    if body:
        header, *rows = body.splitlines()
        if len(rows) > CSV_CELL_ROWS:
            fields["csv.lines"] = str(len(rows) + 1)
            fields["csv.sha256"] = hashlib.sha256(body.encode()).hexdigest()
        else:
            names = header.split(",")
            for index, row in enumerate(rows):
                fields.update((f"r{index}.{n}", cell) for n, cell in zip(names, row.split(",")))
    if payload:
        fields.update(_json_leaves(json.loads(payload), ""))
    return fields


def observe(argv: list[str]) -> dict:
    """The record entry of one invocation, run in the current directory."""
    return entry(argv, *run(argv))


def entry(argv: list[str], code: int, stdout: str) -> dict:
    """The record entry of an invocation that exited ``code`` and printed ``stdout``."""
    return {
        "argv": argv,
        "code": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "numbers": numbers(stdout),
    }


def differences(recorded: dict, observed: dict) -> list[str]:
    """One line per field in which ``observed`` differs from ``recorded``.

    Numbers that differ name their relative difference, so a last-digit BLAS
    difference can be read apart from a changed computation.  A stdout digest
    that differs while every field matches is named on its own.
    """
    lines = []
    if observed["code"] != recorded["code"]:
        lines.append(f"exit code: recorded {recorded['code']}, now {observed['code']}")
    was, now = recorded["numbers"], observed["numbers"]
    for name in sorted(was.keys() | now.keys()):
        old, new = was.get(name), now.get(name)
        if old == new:
            continue
        line = f"{name}: recorded {old}, now {new}"
        with contextlib.suppress(TypeError, ValueError):
            a, b = float(old), float(new)
            if a != b and math.isfinite(a) and math.isfinite(b):
                line += f" (relative difference {abs(b - a) / max(abs(a), abs(b)):.1e})"
        lines.append(line)
    if observed["stdout_sha256"] != recorded["stdout_sha256"]:
        lines.append(
            f"stdout SHA-256: recorded {recorded['stdout_sha256']}, now {observed['stdout_sha256']}"
        )
    return lines


def main() -> int:
    entries = []
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for seed, workload, argv in invocations():
            directory = Path(scratch) / f"seed{seed}"
            workloads.write_inputs(seed, directory)
            os.chdir(directory)
            try:
                entries.append({"seed": seed, "workload": workload, **observe(argv)})
            finally:
                os.chdir(previous)
    RECORD.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {RECORD}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
