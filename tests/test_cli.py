import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from quantlab import algebra, cocycle, dolbeault, sections, surface_index, toeplitz
from quantlab.cli import OPERATION_COVERAGE, _identity_residual, build_parser, main

PUBLIC_OPERATIONS = {
    "algebra": ["multiply", "involution", "trace", "regular_representation", "norm_estimate", "norm_profile"],
    "cocycle": ["exterior_derivative", "pullback", "solve_phi", "derive_cocycle", "cocycle_table"],
    "sections": ["project_act", "l2_inner", "module_inner", "module_trace", "gram_positivity"],
    "dolbeault": ["build_dolbeault", "kernel_dimension", "spectral_report", "weitzenbock_residual", "kernel_basis"],
    "toeplitz": [
        "toeplitz",
        "product_defect",
        "commutator_defect",
        "first_order_defect",
        "trace_limit_defect",
        "weyl_relation",
        "bargmann_matrix_element",
        "heisenberg_generator_check",
    ],
    "surface_index": ["l2_index", "natsume_nest_trace", "numeric_index_crosscheck"],
}

MODULES = {
    "algebra": algebra,
    "cocycle": cocycle,
    "sections": sections,
    "dolbeault": dolbeault,
    "toeplitz": toeplitz,
    "surface_index": surface_index,
}


def test_registry_covers_every_public_operation():
    parser = build_parser()
    subcommands = {
        action.dest: action.choices
        for action in parser._actions
        if hasattr(action, "choices") and action.choices
    }
    known = set(next(iter(subcommands.values())))
    for module_name, ops in PUBLIC_OPERATIONS.items():
        for op in ops:
            assert hasattr(MODULES[module_name], op)
            key = f"{module_name}.{op}"
            assert key in OPERATION_COVERAGE, f"operation {key} has no subcommand"
            assert OPERATION_COVERAGE[key] in known


def test_index_subcommand_example(capsys):
    code = main(["index", "--g", "2", "--s", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["l2_index"] == pytest.approx(2.0)
    assert out["natsume_nest"] == pytest.approx(2.0)


def test_cocycle_check_writes_table(tmp_path, capsys):
    target = tmp_path / "cocycle.csv"
    code = main(["cocycle-check", "--radius", "2", "--output", str(target)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["identity_residual"] <= 1e-10
    lines = target.read_text().splitlines()
    assert lines[0] == "claim,n1,m1,n2,m2,value"
    assert len(lines) == 1 + 25 * 25


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["random", "kappa"])
def test_identity_residual_matches_the_triple_loop(radius, kind):
    # random values expose a wrong index; cocycle values, for which every
    # kept triple is ~0, expose a triple kept although a sum leaves the ball
    points = algebra.ball_points(radius)
    if kind == "random":
        values = np.random.default_rng(radius).normal(size=(len(points), len(points)))
    else:
        kc = algebra.KappaCocycle()
        values = np.array([[kc(g1, g2) for g2 in points] for g1 in points])
    index = {g: i for i, g in enumerate(points)}
    half = [g for g in points if max(abs(g[0]), abs(g[1])) <= max(1, radius // 2)]
    worst = 0.0
    for g1 in half:
        for g2 in half:
            for g3 in half:
                g12, g23 = algebra.compose(g1, g2), algebra.compose(g2, g3)
                if g12 in index and g23 in index:
                    c = (
                        values[index[g2], index[g3]]
                        - values[index[g12], index[g3]]
                        + values[index[g1], index[g23]]
                        - values[index[g1], index[g2]]
                    )
                    worst = max(worst, abs(c))
    assert _identity_residual(values, radius) == worst


def test_algebra_subcommand_norm(capsys):
    code = main(["algebra", "--mode", "norm", "--a", "harper", "--s", "0.5", "--radius", "15"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["norm"] <= out["l1_bound"] + 1e-9


def test_module_gram_subcommand(capsys):
    code = main(["module-gram", "--s", "2", "--radius", "5", "--rep-radius", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["min_eigenvalue"] >= -1e-9
    assert out["vacuum_coefficient_deviation"] <= 1e-10


def test_weyl_subcommand(tmp_path):
    target = tmp_path / "weyl.csv"
    code = main(["weyl", "--N", "2..4", "--output", str(target)])
    assert code == 0
    rows = target.read_text().splitlines()
    assert rows[0] == "claim,N,re,im,deviation"
    assert len(rows) == 4
    assert all(float(r.split(",")[-1]) <= 1e-8 for r in rows[1:])


def test_sweep_determinism(tmp_path):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    args = ["toeplitz-sweep", "--fg", "cos2pix,cos2piy", "--N", "4..6", "--samples", "2"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "claim,N,M,defect,fitted_slope_so_far"


def test_config_override(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"g": 5, "s": 2.5}))
    code = main(["--config", str(config), "index", "--g", "2", "--s", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["l2_index"] == pytest.approx(l2_expected := (2.5 * 4 + 1 - 5))
    assert out["natsume_nest"] == pytest.approx(l2_expected)


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"not-a-key": 1}))
    code = main(["--config", str(config), "index", "--g", "2", "--s", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "config-error"


def test_usage_error_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "quantlab.cli", "no-such-command"],
        capture_output=True,
    )
    assert result.returncode == 2


def test_failure_record_on_bad_spectral_request(capsys):
    code = main(["spectral", "--n-flux", "4", "--grid", "8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "failed"
    assert out["error"] == "ResolutionError"


def test_fluxless_spectral_runs_on_a_fine_grid(capsys):
    code = main(["spectral", "--n-flux", "0", "--grid", "64"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["kernel_dim"] == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (["weyl", "--N", "1"], "ValueError"),
        (["bargmann", "--s", "-1"], "ValueError"),
        (["heisenberg", "--truncation", "0"], "ValueError"),
        (["toeplitz-sweep", "--fg", "no-such-symbol,cos2piy"], "FileNotFoundError"),
    ],
)
def test_invalid_option_value_exits_2_with_record(argv, error, capsys):
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "usage-error"
    assert out["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["cocycle-check", "--radius", "-1"],
        ["toeplitz-sweep", "--N", "0..2"],
    ],
)
def test_out_of_range_value_exits_2_without_traceback(argv, capsys):
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "usage-error"
    assert out["error"] == "ValueError"


def test_nonpositive_slack_rejected_on_argv_and_in_config(tmp_path, capsys):
    argv = ["spectral", "--n-flux", "1", "--grid", "16"]
    assert main(argv + ["--slack", "-1"]) == 2
    assert json.loads(capsys.readouterr().out)["message"] == "slack must be positive"
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"slack": 0}))
    assert main(["--config", str(config)] + argv) == 2
    assert json.loads(capsys.readouterr().out)["message"] == "slack must be positive"


def test_solver_non_convergence_exits_1_with_record(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(algebra, "norm_estimate", no_convergence)
    code = main(["algebra", "--mode", "norm-profile", "--radius", "10"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "failed"
    assert out["error"] == "ArpackNoConvergence"


def test_continuity_threshold_failure_exits_1_with_record(capsys):
    argv = ["algebra", "--mode", "norm-profile", "--radius", "3", "--s-grid", "0.0,0.5"]
    code = main(argv + ["--continuity-threshold", "1e-6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "failed"
    assert out["error"] == "ContinuityError"


def test_heisenberg_small_truncation(capsys):
    code = main(["heisenberg", "--truncation", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["commutator_residual"] <= 1e-8
    assert math.isfinite(out["scalar_deviation"])
