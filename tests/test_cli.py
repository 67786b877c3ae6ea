import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantlab
from quantlab import algebra, cli, cocycle, dolbeault, sections, surface_index, toeplitz
from quantlab.cli import LIBRARY_ONLY, OPERATION_COVERAGE, _identity_residual, build_parser, main

from oracles import write_rows_csv

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
    public = {f"{module_name}.{op}" for module_name, ops in PUBLIC_OPERATIONS.items() for op in ops}
    for key in public:
        module_name, op = key.split(".")
        assert hasattr(MODULES[module_name], op)
    # each public operation is in exactly one of the two sets
    assert not set(OPERATION_COVERAGE) & LIBRARY_ONLY
    assert set(OPERATION_COVERAGE) | LIBRARY_ONLY == public
    assert set(OPERATION_COVERAGE.values()) <= known


# small invocations of each subcommand a registry entry is checked against
SMALL_RUNS = {
    "algebra": [
        ["algebra", "--mode", "mult"],
        ["algebra", "--mode", "trace"],
        ["algebra", "--mode", "norm", "--radius", "3"],
        ["algebra", "--mode", "norm-profile", "--radius", "3", "--s-grid", "0.0,0.5"],
    ],
    "module-gram": [["module-gram", "--radius", "3", "--rep-radius", "2"]],
    "spectral": [["spectral", "--n-flux", "1", "--grid", "16", "--export-kernel", "KERNEL"]],
    "toeplitz-sweep": [["toeplitz-sweep", "--N", "4,5", "--samples", "2"]],
    "weyl": [["weyl", "--N", "2..3"]],
    "bargmann": [["bargmann", "--j", "0..1", "--k", "0"]],
    "heisenberg": [["heisenberg"]],
    "index": [["index", "--g", "2", "--s", "3"]],
}
QUANTLAB_MODULES = (cli, *MODULES.values())


@pytest.mark.parametrize("operation", sorted(OPERATION_COVERAGE))
def test_registry_entry_names_a_subcommand_that_runs_it(operation, tmp_path, monkeypatch, capsys):
    module_name, name = operation.split(".")
    original = getattr(MODULES[module_name], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that binds the operation by name, as `from ... import` does
    for module in QUANTLAB_MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    subcommand = OPERATION_COVERAGE[operation]
    for argv in SMALL_RUNS[subcommand]:
        assert main([str(tmp_path / "kernel.csv") if a == "KERNEL" else a for a in argv]) == 0
    capsys.readouterr()
    assert calls, f"{subcommand} does not call {operation}"


WRITER_RUNS = [
    *(
        ["cocycle-check", "--radius", str(radius), "--potential", potential]
        for radius in range(4)
        for potential in ("symmetric", "landau")
    ),
    ["toeplitz-sweep", "--N", "4,5", "--samples", "2"],
    ["weyl", "--N", "2..3"],
    ["bargmann"],
    ["algebra", "--mode", "norm-profile", "--radius", "3"],
    ["spectral", "--n-flux", "1", "--grid", "16"],
]


def _outputs(argv, target, capsys):
    code = main(argv)
    data = target.read_bytes() if target.exists() else None
    target.unlink(missing_ok=True)
    return code, capsys.readouterr().out, data


@pytest.mark.parametrize("argv", WRITER_RUNS, ids=" ".join)
def test_writer_bytes_equal_the_csv_module(argv, tmp_path, monkeypatch, capsys):
    target = tmp_path / "rows.csv"
    if argv[0] == "spectral":
        runs = [argv + ["--export-kernel", str(target)]]
    else:
        runs = [argv, argv + ["--output", str(target)]]
    ours = [_outputs(run, target, capsys) for run in runs]
    assert ours[-1][2], "no CSV written"
    monkeypatch.setattr(cli, "_write_rows", write_rows_csv)
    assert [_outputs(run, target, capsys) for run in runs] == ours


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


@pytest.mark.parametrize(
    "overrides, argv, tokens",
    [
        ({"N": 4}, ["weyl", "--N", "2..3"], ["--N", "4"]),
        ({"s_grid": 5}, ["algebra", "--mode", "norm-profile", "--radius", "3"], ["--s-grid", "5"]),
        ({"g": 5, "s": 2.5}, ["index", "--g", "2", "--s", "1"], ["--g", "5", "--s", "2.5"]),
        ({"rep_radius": 2, "rep-radius": 3}, ["module-gram"], ["--rep-radius", "3"]),
    ],
    ids=["range-given-int", "string-given-int", "int-and-float", "dest-and-flag"],
)
def test_config_means_the_same_as_argv(overrides, argv, tokens, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(overrides))
    code = main(["--config", str(config)] + argv)
    out = capsys.readouterr().out
    assert (code, out) == (main(argv + tokens), capsys.readouterr().out)


@pytest.mark.parametrize(
    "text, argv",
    [
        ('{"g": 2.5}', ["index", "--g", "2", "--s", "3"]),
        ('{"grid_rule": "x"}', ["weyl", "--N", "2"]),
        ('{"continuity_threshold": "x"}', ["algebra", "--mode", "norm", "--radius", "2"]),
        ('{"func": 1}', ["index", "--g", "2", "--s", "3"]),
        ('{"command": "weyl"}', ["index", "--g", "2", "--s", "3"]),
        ('{"config": "conf.json"}', ["index", "--g", "2", "--s", "3"]),
        ('{"help": "x"}', ["index", "--g", "2", "--s", "3"]),
        ('{"potential": "bogus"}', ["cocycle-check", "--radius", "1"]),
        ('{"radius": true}', ["cocycle-check", "--radius", "1"]),
        ('{"N": [4, 5]}', ["weyl", "--N", "2"]),
        ('{"N": null}', ["weyl", "--N", "2"]),
        ('{"N": {"lo": 2}}', ["weyl", "--N", "2"]),
        ("[1, 2]", ["weyl", "--N", "2"]),
        ("{not json", ["weyl", "--N", "2"]),
    ],
    ids=[
        "int-given-float",
        "int-given-string",
        "float-given-string",
        "internal-func",
        "internal-command",
        "top-level-config",
        "help",
        "bad-choice",
        "boolean",
        "array",
        "null",
        "object",
        "not-an-object",
        "not-json",
    ],
)
def test_config_rejects_what_the_parser_rejects(text, argv, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(text)
    code = main(["--config", str(config)] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["status"] == "config-error"
    assert captured.err == ""


def test_config_file_missing(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.json"), "weyl", "--N", "2"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "config-error"


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"not-a-key": 1}))
    code = main(["--config", str(config), "index", "--g", "2", "--s", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "config-error"


def test_usage_error_exits_2():
    # the child imports quantlab from the same place as this test process
    src = str(Path(quantlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "quantlab.cli", "no-such-command"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
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
        # a radius below 1 is a usage error whichever option carries it
        (["algebra", "--mode", "norm", "--radius", "0"], "TruncationError"),
        (["algebra", "--mode", "norm-profile", "--radius", "-2"], "TruncationError"),
        (["module-gram", "--rep-radius", "0"], "TruncationError"),
        (["module-gram", "--radius", "0"], "ValueError"),
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
    # one factorization cannot close the sigma_max bracket of a fresh kernel solve
    monkeypatch.setattr(algebra, "_NORM_MAX_STEPS", 1)
    dolbeault._kernel_data.cache_clear()
    code = main(["spectral", "--n-flux", "1", "--grid", "16"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "failed"
    assert out["error"] == "ConvergenceError"


def test_norm_bracket_failure_exits_1_with_record(monkeypatch, capsys):
    monkeypatch.setattr(algebra, "_NORM_MAX_STEPS", 1)
    code = main(["algebra", "--mode", "norm", "--s", "0.1", "--radius", "13"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "failed"
    assert out["error"] == "ConvergenceError"


def test_norm_profile_at_the_default_radius(capsys):
    assert main(["algebra", "--mode", "norm-profile", "--s-grid", "0.1,0.9"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [float(row["s"]) for row in rows] == [0.1, 0.9]
    h = algebra.harper_element(algebra.KappaCocycle(), 0.0)
    for row in rows:
        smaller_ball = algebra.norm_estimate(h, algebra.KappaCocycle(), float(row["s"]), 13)
        assert smaller_ball - 1e-10 <= float(row["norm"]) <= 4.0


def test_continuity_threshold_failure_exits_1_with_record(capsys):
    argv = ["algebra", "--mode", "norm-profile", "--radius", "3", "--s-grid", "0.0,0.5"]
    code = main(argv + ["--continuity-threshold", "1e-6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "failed"
    assert out["error"] == "ContinuityError"


def test_heisenberg_small_truncation(capsys):
    # four ladder states are too few for the group commutator: exit 1, record printed
    code = main(["heisenberg", "--truncation", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["commutator_residual"] <= 1e-8
    assert out["scalar_deviation"] > 1e-8


def test_heisenberg_default_truncation_passes(capsys):
    code = main(["heisenberg"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["claim"] == "heisenberg-generators"
    assert max(out["scalar_deviation"], out["commutator_residual"]) <= 1e-8


# Gated subcommands exit 1, with their usual output, once a measured value
# passes its bound; the library call is replaced by one that lands just past it.


def test_weyl_gate_fails_past_1e_8(monkeypatch, capsys):
    def off_by(n, grid):
        return cmath.exp(2j * math.pi / n) + 2e-8

    monkeypatch.setattr(toeplitz, "weyl_relation", off_by)
    code = main(["weyl", "--N", "2..3"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 1
    assert rows[0] == "claim,N,re,im,deviation"
    assert [float(r.split(",")[-1]) for r in rows[1:]] == pytest.approx([2e-8, 2e-8], rel=1e-6)


def test_bargmann_gate_fails_past_1e_8(monkeypatch, capsys):
    def off_by(j, k, s):
        return complex(math.exp(-math.pi * (j * j + k * k) / s) / s + 2e-8)

    monkeypatch.setattr(toeplitz, "bargmann_matrix_element", off_by)
    code = main(["bargmann", "--j", "0..1", "--k", "0"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 1
    assert rows[0] == "claim,j,k,re,im,closed_form,deviation"
    assert len(rows) == 3
    assert all(float(r.split(",")[-1]) > 1e-8 for r in rows[1:])


@pytest.mark.parametrize("which", ["scalar", "commutator"])
def test_heisenberg_gate_fails_past_1e_8(which, monkeypatch, capsys):
    check = toeplitz.heisenberg_generator_check

    def off_by(s, truncation):
        report = dict(check(s, truncation))
        if which == "scalar":
            report["group_commutator_scalar"] = report["group_commutator_expected"] + 2e-8
        else:
            report["commutator_residual"] = 2e-8
        return report

    monkeypatch.setattr(toeplitz, "heisenberg_generator_check", off_by)
    code = main(["heisenberg"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["claim"] == "heisenberg-generators"
    key = "scalar_deviation" if which == "scalar" else "commutator_residual"
    assert out[key] == pytest.approx(2e-8, rel=1e-6)


@pytest.mark.parametrize("which", ["constancy", "identity"])
def test_cocycle_check_gate_fails_past_1e_10(which, monkeypatch, capsys):
    grid = cocycle.cocycle_grid

    def perturbed(A, radius):
        points, values, residual = grid(A, radius)
        if which == "identity":
            values = values.copy()
            k = points.index((0, 0))
            values[k, k] += 2e-10  # c(0, 0): the triples (0, 0, g) see it
            return points, values, residual
        return points, values, 2e-10

    monkeypatch.setattr(cocycle, "cocycle_grid", perturbed)
    code = main(["cocycle-check", "--radius", "2"])
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads("\n".join(lines[1 + 25 * 25 :]))
    assert code == 1
    assert lines[0] == "claim,n1,m1,n2,m2,value"
    assert summary["pairs"] == 25 * 25
    assert summary[f"{which}_residual"] > 1e-10


def test_module_gram_gate_fails_past_minus_1e_9(monkeypatch, capsys):
    report = {"min_eigenvalue": -2e-9, "dimension": 9, "tail_bound": 0.0}
    monkeypatch.setattr(sections, "gram_positivity", lambda *args: report)
    code = main(["module-gram", "--radius", "3", "--rep-radius", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["claim"] == "module-gram-positivity"
    assert out["min_eigenvalue"] == -2e-9
