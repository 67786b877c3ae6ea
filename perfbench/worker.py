"""One repetition of a workload, in a fresh process started by run.py.

Usage: worker.py PLAN_JSON OUT_DIR [SPANS_JSONL]

Imports ``quantlab.cli`` (timed on its own), then times each of the workload's
``cli.main`` calls, capturing its standard output in memory.  Before the
import and after each call, outside every timed interval, it times a fixed
pure-Python loop (``calibration_s``), which tells run.py how fast the shared
host ran this process.  Given SPANS_JSONL, the calls run traced (see tracing.py) and the
spans are written there.  Writes ``result.json`` and one ``out<i>.txt`` per
call into OUT_DIR after the timed phase and after reading the peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


CAL_LOOPS = 200_000  # about 20 ms on a 2.0 GHz Xeon core
CAL_BEFORE_IMPORT = 3
CAL_AFTER_CALL = 2


def calibration_s() -> float:
    """Time of one fixed pure-Python loop that never touches quantlab."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text())
    out_dir = Path(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None

    cal = [calibration_s() for _ in range(CAL_BEFORE_IMPORT)]
    started = time.perf_counter()
    import quantlab.cli

    import_s = time.perf_counter() - started
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    texts, codes, errors = [], [], []
    wall = cpu = 0.0
    for run_id, args in enumerate(plan):
        if tracer:
            tracer.run_id = run_id
        buf = io.StringIO()
        code, error = None, None
        start, cpu_start = time.perf_counter(), _cpu_seconds()
        try:
            with contextlib.redirect_stdout(buf):
                code = quantlab.cli.main(args)
        except (Exception, SystemExit):  # a failed call is recorded, the workload goes on
            error = traceback.format_exc()
        wall += time.perf_counter() - start
        cpu += _cpu_seconds() - cpu_start
        cal += [calibration_s() for _ in range(CAL_AFTER_CALL)]
        texts.append(buf.getvalue())
        codes.append(code)
        errors.append(error)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"import_s": import_s, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "cal_s": cal, "codes": codes, "errors": errors}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        result["self_sum_s"] = sum(tracing.self_times(tracer.spans))
        tracer.write_spans(spans_path)
    for i, text in enumerate(texts):
        (out_dir / f"out{i}.txt").write_text(text)
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
