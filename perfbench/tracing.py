"""Per-layer spans and counts around quantlab, recorded from outside the package.

``install`` rebinds every module attribute of ``quantlab`` that holds a traced
function, so calls through ``from ... import`` names (``quantlab.cli``,
``quantlab.toeplitz``, ``quantlab.surface_index``) and through function-local
imports (``sections.gram_positivity``) reach the wrapper too.  Spans are kept
in memory as (name, start, end, parent, run id) and written out at the end.
The recorder assumes one call stack, which holds because the benchmark runs
the CLI with ``QUANTLAB_THREADS=1``: the sweep's single pool worker runs while
the main thread waits for it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> layer op.  Two private helpers are traced because every
# public entry point funnels through them: _kernel_data is the kernel solve
# (lru-cached, so its calls include cache hits) and _regular_rep_sparse the
# regular-representation assembly.
SPANS = {
    ("cli", "main"): "cli",
    ("dolbeault", "_kernel_data"): "dolbeault.kernel",
    ("dolbeault", "build_dolbeault"): "dolbeault.build",
    ("dolbeault", "spectral_report"): "dolbeault.spectral",
    ("dolbeault", "weitzenbock_residual"): "dolbeault.weitzenbock",
    ("surface_index", "numeric_index_crosscheck"): "surface_index.crosscheck",
    ("toeplitz", "holomorphic_basis"): "toeplitz.basis",
    ("toeplitz", "toeplitz"): "toeplitz.assemble",
    ("toeplitz", "product_defect"): "toeplitz.defect",
    ("toeplitz", "commutator_defect"): "toeplitz.defect",
    ("toeplitz", "first_order_defect"): "toeplitz.defect",
    ("toeplitz", "trace_limit_defect"): "toeplitz.defect",
    ("toeplitz", "weyl_relation"): "toeplitz.weyl",
    ("algebra", "norm_estimate"): "algebra.norm",
    ("algebra", "regular_representation"): "algebra.regrep",
    ("algebra", "_regular_rep_sparse"): "algebra.regrep",
    ("cocycle", "cocycle_grid"): "cocycle.grid",
    ("sections", "module_inner"): "sections.module_inner",
    ("sections", "gram_positivity"): "sections.gram",
}

# Hot leaves get a call counter only: a span per call would cost more than the call.
COUNTS = {
    ("cocycle", "solve_phi"): "cocycle.solve_phi",
    ("sections", "l2_inner"): "sections.l2_inner",
    ("sections", "project_act"): "sections.project_act",
}

MODULES = ("cli", "dolbeault", "surface_index", "toeplitz", "algebra", "cocycle", "sections")

# ops whose work counts are computed from their call arguments
ARGUMENT_OPS = ("dolbeault.kernel", "algebra.norm")


def _module(op: str) -> str:
    return op.split(".", 1)[0]


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.arguments: dict[str, list[dict]] = defaultdict(list)
        self.run_id = 0
        self._stack: list[int] = []

    def _count_error(self, module: str, parent: int | None) -> None:
        """Count an exception once, where it leaves the module's outermost span."""
        if parent is None or _module(self.spans[parent][0]) != module:
            self.errors[module] += 1

    def span(self, op: str, fn):
        module = _module(op)
        signature = inspect.signature(fn) if op in ARGUMENT_OPS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self.spans[stack[-1]][0] == op:
                return fn(*args, **kwargs)  # re-entry belongs to the enclosing span
            if signature is not None:
                self.arguments[op].append(dict(signature.bind(*args, **kwargs).arguments))
            record = [op, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._count_error(module, record[3])
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def counter(self, op: str, fn):
        module = _module(op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[op] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._count_error(module, self._stack[-1] if self._stack else None)
                raise

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run_id}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of an imported ``quantlab`` wherever they are bound."""
    modules = [m for name, m in sys.modules.items() if name.startswith("quantlab.")]
    for table, make in ((SPANS, tracer.span), (COUNTS, tracer.counter)):
        for (module, attribute), op in table.items():
            original = getattr(sys.modules[f"quantlab.{module}"], attribute)
            wrapped = make(op, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapped)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, self times and argument-derived work counts."""
    calls: Counter = Counter()
    own: dict[str, float] = defaultdict(float)
    longest: dict[str, float] = defaultdict(float)
    for (name, start, end, *_), seconds in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        own[name] += seconds
        longest[name] = max(longest[name], end - start)
    metrics: dict[str, float] = {}
    for op in dict.fromkeys(SPANS.values()):
        metrics[f"{op}.calls"] = calls[op]
        metrics[f"{op}.self_s"] = own[op]
    for op in COUNTS.values():
        metrics[f"{op}.calls"] = tracer.counts[op]
    grids = {(a["n_flux"], a["grid"], a["gauge"]) for a in tracer.arguments["dolbeault.kernel"]}
    metrics["dolbeault.kernel.grids"] = len(grids)
    metrics["dolbeault.kernel.sites"] = sum(grid * grid for _, grid, _ in grids)
    metrics["algebra.norm.max_s"] = longest["algebra.norm"]
    metrics["algebra.norm.ball_sites"] = sum(
        (2 * a["radius"] + 1) ** 2 for a in tracer.arguments["algebra.norm"]
    )
    for module in MODULES:
        metrics[f"{module}.errors"] = tracer.errors[module]
    return metrics
