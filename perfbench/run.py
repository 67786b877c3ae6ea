"""quantlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/quantlab`` must exist).  The
workload repeats, each time in a fresh process with cold caches, while the
next repetition is expected to end within S seconds (at least once).

The speed of a shared host drifts by up to 1.7x over seconds to minutes, and
pure-Python code follows it fully, so raw times of the same code spread by
20-35 % from run to run.  Each worker therefore also times a fixed
pure-Python loop between its calls (worker.calibration_s), and the two
timings are reported in seconds at a reference host speed: ``wall_s`` is the
mean repetition wall time without the fastest and the slowest repetition,
``setup_s`` the median import time, each multiplied by CAL_REF_S over the
median loop time of the run.  The loop never touches quantlab, so a change
to the program moves these metrics as it moves the raw times.  Raw times and the host speed are printed and
recorded beside them.  ``peak_rss_mb`` is a median over the repetitions.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are BENCHMARK.json's ``end_to_end`` list; with ``--trace 1`` a
further traced repetition supplies the ``per_layer`` list.  Every output is
checked after the timed phase (checks.py).  Records, spans and inputs go to
``perfbench/out/``.

Every child process gets ``QUANTLAB_THREADS=1`` and BLAS threads capped at
the number of usable CPUs, so a run uses at most that many compute threads,
and ``NUMPY_MADVISE_HUGEPAGE=0``, because whether the host can back numpy's
arrays with huge pages otherwise moves the peak RSS by up to 10 %.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_SAMPLES = 5
CAL_REF_S = 0.020  # the calibration loop's time at the reference host speed
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import json, platform, numpy, scipy, quantlab.cli
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": "%s %s" % (blas.get("name"), blas.get("version"))}))
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts the child processes of one run, each bounded by the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(
            os.environ, PYTHONPATH=str(ROOT / "src"), QUANTLAB_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0"
        )
        self.env.update({var: str(self.nproc) for var in BLAS_THREAD_VARS})

    def python(self, args: list[str], cwd: Path | None = None) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=cwd, env=self.env,
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[:2]} killed at the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return proc.stdout

    def repetition(self, plan_file: Path, rep_dir: Path, input_dir: Path, spans: Path | None) -> dict:
        rep_dir.mkdir()
        args = [str(BENCH / "worker.py"), str(plan_file), str(rep_dir)]
        self.python(args + ([str(spans)] if spans else []), cwd=input_dir)
        result = json.loads((rep_dir / "result.json").read_text())
        result["texts"] = [(rep_dir / f"out{i}.txt").read_text() for i in range(len(result["codes"]))]
        shutil.rmtree(rep_dir)  # the sweep and cocycle outputs are large
        return result


def trimmed_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value, when at least three are given."""
    ordered = sorted(values)
    return statistics.mean(ordered[1:-1] if len(ordered) >= 3 else ordered)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    """Measure and check one workload; return the result object and a readable report."""
    if not (ROOT / "src" / "quantlab" / "cli.py").is_file():
        raise BenchError(f"no quantlab sources under {ROOT / 'src'}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    input_dir = run_dir / "inputs"
    digest = workloads.write_inputs(args.seed, input_dir)
    plan = workloads.plan(args.workload)
    plan_file = run_dir / "plan.json"
    plan_file.write_text(json.dumps(plan))
    import_only = run_dir / "import-only.json"  # tops up the set-up samples the repetitions give
    import_only.write_text("[]")

    env = json.loads(runner.python(["-c", PROBE]))  # also warms the file cache and bytecode
    env.update(
        nproc=runner.nproc,
        settings={k: runner.env[k] for k in ("QUANTLAB_THREADS", "NUMPY_MADVISE_HUGEPAGE", *BLAS_THREAD_VARS)},
        git_commit=_git_commit(),
        src_lines=_src_lines(),
        input_sha256=digest,
    )
    reps, took = [], []
    started = time.monotonic()
    while not reps or time.monotonic() - started + statistics.median(took) <= args.seconds:
        reps.append(runner.repetition(plan_file, run_dir / f"rep{len(reps)}", input_dir, None))
        took.append(time.monotonic() - started - sum(took))
    imports = list(reps)
    if not args.trace:
        while len(imports) < SETUP_SAMPLES:
            imports.append(runner.repetition(import_only, run_dir / f"import{len(imports)}", input_dir, None))
    setup = [rep["import_s"] for rep in imports]
    cal = statistics.median(t for rep in imports for t in rep["cal_s"])
    speed = CAL_REF_S / cal  # seconds measured now -> seconds at the reference speed
    traced = None
    if args.trace:
        traced = runner.repetition(plan_file, run_dir / "traced", input_dir, run_dir / "spans.jsonl")

    everything = reps + ([traced] if traced else [])
    results = []
    for rep in everything:
        results.extend(checks.check(plan, rep["texts"], rep["codes"], input_dir))
    passed = sum(ok for _, ok in results)
    calls = [code for rep in everything for code in rep["codes"]]
    raw_wall = trimmed_mean([rep["wall_s"] for rep in reps])
    wall = raw_wall * speed
    correct = checks.run_is_correct(results)

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["process.cpu_s"] = traced["cpu_s"]
        traced_speed = CAL_REF_S / statistics.median(traced["cal_s"])
        metrics["trace.overhead_frac"] = traced["wall_s"] * traced_speed / wall - 1.0
        correct = correct and traced["self_sum_s"] <= traced["wall_s"]
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup) * speed,
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
            "check_pass_frac": passed / len(results),
        }
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    failing = [name for name, ok in results if not ok]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "repetition_wall_s": [rep["wall_s"] for rep in reps],
        "setup_samples_s": setup,
        "calibration_s": [t for rep in imports for t in rep["cal_s"]],
        "host_speed": speed,
        "checks_attempted": len(results),
        "checks_failed": failing,
        "known_defects": sorted(set(failing) & checks.KNOWN_DEFECTS),
        "call_errors": [e for rep in everything for e in rep["errors"] if e],
        "metrics": metrics,
    }
    if traced:
        record["traced_wall_s"] = traced["wall_s"]
        record["self_sum_s"] = traced["self_sum_s"]
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    lines = [f"environment: {json.dumps(env, sort_keys=True)}"]
    lines += [f"{args.workload} {name} = {value!r} {units[name]}" for name, value in metrics.items()]
    lines.append(f"{args.workload} raw wall_s = {raw_wall!r} s, raw setup_s = {statistics.median(setup)!r} s")
    lines.append(f"{args.workload} host speed = {speed!r} (calibration loop median {cal!r} s)")
    lines.append(f"{args.workload} check_fail_frac = {(len(results) - passed) / len(results)!r} ratio")
    for name, times in Counter(failing).items():
        known = " (known defect)" if name in checks.KNOWN_DEFECTS else ""
        lines.append(f"check failed{known} in {times} of {len(everything)} repetitions: {name}")
    lines += [f"call error: {e}" for e in record["call_errors"]]
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": sum(code != 0 for code in calls),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        outcome = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
