"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_same_seed_gives_same_inputs(tmp_path):
    first = workloads.write_inputs(7, tmp_path / "a")
    again = workloads.write_inputs(7, tmp_path / "b")
    other = workloads.write_inputs(8, tmp_path / "c")
    assert first == again != other
    for name in workloads.input_texts(7):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _norm_profile_text(scale_at: float | None = None, factor: float = 1.0) -> str:
    ref = json.loads(checks.REFERENCE.read_text())
    lines = ["claim,s,norm"]
    for s, norm in zip(ref["s_grid"], ref["norms"]):
        lines.append(f"norm-continuity,{s!r},{norm * (factor if s == scale_at else 1.0)!r}")
    return "\n".join(lines) + "\n"


def test_norm_perturbed_by_1e_6_fails():
    plan = workloads.plan("norm-profile")
    exact = checks.check(plan, [_norm_profile_text()], [0], BENCH)
    assert all(ok for _, ok in exact) and checks.run_is_correct(exact)
    perturbed = checks.check(plan, [_norm_profile_text(0.5, 1.0 + 1e-6)], [0], BENCH)
    assert [name for name, ok in perturbed if not ok] == ["norm-profile s=0.5"]
    assert not checks.run_is_correct(perturbed)


def _spectral_payload(n: int, kernel_dim: int) -> str:
    return json.dumps(
        {
            "kernel_dim": kernel_dim,
            "gap_degree1": 2 * 3.14159 * n,
            "parametrix_norm": (2 * 3.14159 * n) ** -0.5,
            "index_crosscheck": {"kernel_dim": kernel_dim, "match": True, "flat_case_flagged": False},
        }
    )


def test_kernel_dim_off_by_one_fails():
    plan = [["spectral", "--n-flux", "3", "--grid", "24"]]
    good = checks.check(plan, [_spectral_payload(3, 3)], [0], BENCH)
    assert all(ok for _, ok in good)
    bad = checks.check(plan, [_spectral_payload(3, 4)], [0], BENCH)
    assert {name for name, ok in bad if not ok} == {"spectral N=3 kernel_dim", "spectral N=3 index match"}
    assert not checks.run_is_correct(bad)


def test_nonzero_exit_fails():
    plan = [["spectral", "--n-flux", "3", "--grid", "24"]]
    results = checks.check(plan, [_spectral_payload(3, 3)], [1], BENCH)
    assert [name for name, ok in results if not ok] == ["exit spectral --n-flux 3"]


def test_trimmed_mean_ignores_one_disturbed_repetition():
    assert run.trimmed_mean([1.0, 1.2, 0.8, 11.9]) == 1.1
    assert run.trimmed_mean([2.0, 4.0]) == 3.0


def test_self_times_of_nested_spans():
    spans = [
        ["cli", 0.0, 10.0, None, 0],
        ["toeplitz.defect", 1.0, 4.0, 0, 0],
        ["dolbeault.kernel", 2.0, 3.0, 1, 0],
        ["toeplitz.defect", 5.0, 9.0, 0, 0],
        ["cli", 11.0, 12.5, None, 1],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert sum(tracing.self_times(spans)) == 11.5  # the time the root spans cover


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics(tracing.Tracer())) | {"process.cpu_s", "trace.overhead_frac"}
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_traced_worker_covers_imported_names(tmp_path):
    plan = [["spectral", "--n-flux", "1", "--grid", "16"], ["module-gram"]]
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QUANTLAB_THREADS="1")
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "plan.json", ".", "spans.jsonl"],
        cwd=tmp_path, env=env, check=True, timeout=120,
    )
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["codes"] == [0, 0]
    layers = result["layers"]
    # cli binds build_dolbeault and spectral_report by name, surface_index binds
    # build_dolbeault, and gram_positivity imports regular_representation locally;
    # the spectral command, the kernel solve and the crosscheck each build D+
    assert layers["cli.calls"] == 2
    assert layers["dolbeault.build.calls"] == 3
    assert layers["dolbeault.spectral.calls"] == 1
    assert layers["surface_index.crosscheck.calls"] == 1
    assert layers["algebra.regrep.calls"] == 1
    assert layers["sections.l2_inner.calls"] == 2 * 13**2  # two module_inner calls at radius 6
    assert layers["dolbeault.kernel.grids"] == 1 and layers["dolbeault.kernel.sites"] == 256
    assert result["self_sum_s"] <= result["wall_s"]
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["run"] for s in spans} == {0, 1}
    assert all(s["parent"] is not None for s in spans if s["name"] != "cli")
