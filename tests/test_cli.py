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

from oracles import cocycle_rows_loop, write_rows_csv

PUBLIC_OPERATIONS = {
    "algebra": ["multiply", "involution", "trace", "regular_representation", "norm_estimate", "norm_profile"],
    "cocycle": ["solve_phi", "cocycle_table"],
    "sections": ["project_act", "l2_inner", "module_inner", "gram_positivity", "heisenberg_generator_check"],
    "dolbeault": ["build_dolbeault", "kernel_dimension", "spectral_report", "weitzenbock_residual", "kernel_basis"],
    "toeplitz": [
        "toeplitz",
        "defect_sweep",
        "product_defect",
        "commutator_defect",
        "first_order_defect",
        "trace_limit_defect",
        "weyl_relation",
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


def test_row_reprs_format_each_distinct_value_once(monkeypatch):
    values = np.array([[0.0, -0.0, 1.5, 0.0], [-0.0, 1.5, 0.1 + 0.2, -0.0], [0.0, 0.0, 0.0, 0.0]])
    formatted = []

    def counted(value):
        formatted.append(value)
        return repr(value)

    monkeypatch.setattr(cli, "repr", counted, raising=False)
    rows = [row.tolist() for row in cli._row_reprs(values)]
    assert rows == [[repr(v) for v in row] for row in values.tolist()]
    assert rows[0][:2] == ["0.0", "-0.0"]
    # 0.0 and -0.0 are equal floats with different text: keyed apart
    assert sorted(map(repr, formatted)) == ["-0.0", "0.0", "0.30000000000000004", "1.5"]


@pytest.mark.parametrize("potential", ["symmetric", "landau"])
def test_cocycle_check_rows_equal_the_per_value_repr_oracle(potential, tmp_path, capsys):
    target = tmp_path / "cocycle.csv"
    gauge = cocycle.symmetric_gauge if potential == "symmetric" else cocycle.landau_gauge
    for radius in (3, 7):  # 7: the benchmark's grid
        argv = ["cocycle-check", "--radius", str(radius), "--potential", potential]
        assert main(argv + ["--output", str(target)]) == 0
        capsys.readouterr()
        points, values, _ = cocycle.cocycle_grid(gauge(), radius)
        assert target.read_bytes() == cocycle_rows_loop(points, values).encode()


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
        ('{"truncation": 60}', ["heisenberg"]),
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
        "removed-option",
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


def test_config_call_leaves_the_shared_parser_exiting_on_bad_options(tmp_path, capsys):
    assert build_parser() is build_parser()
    config = tmp_path / "conf.json"
    for text in ('{"potential": "bogus"}', '{"potential": "landau"}'):
        config.write_text(text)
        main(["--config", str(config), "cocycle-check", "--radius", "1"])
        capsys.readouterr()
        # argparse reports a bad option itself, as before any --config call
        with pytest.raises(SystemExit) as exc:
            main(["cocycle-check", "--potential", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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


def _child_env():
    """The environment of a CLI child that imports quantlab from where this process does."""
    src = str(Path(quantlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_usage_error_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "quantlab.cli", "no-such-command"],
        capture_output=True,
        env=_child_env(),
    )
    assert result.returncode == 2


def test_stdout_closed_early_exits_3_with_one_record_on_stderr():
    # `cocycle-check --radius 7 | head -c 10` exited 1 with two BrokenPipeError tracebacks
    child = subprocess.Popen(
        [sys.executable, "-m", "quantlab.cli", "cocycle-check", "--radius", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert child.stdout.read(10) == b"claim,n1,m"
    child.stdout.close()  # some 600 kB are still to come, past any pipe buffer
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 3
    assert json.loads(err) == {
        "status": "output-closed",
        "error": "BrokenPipeError",
        "message": "[Errno 32] Broken pipe",
    }


def test_failure_record_on_bad_spectral_request(capsys):
    # grid 8 is below build_dolbeault's floor 4N; grid 16 passes it, but
    # its lowest singular value is not below the kernel threshold
    for grid in ("8", "16"):
        code = main(["spectral", "--n-flux", "4", "--grid", grid])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["status"] == "failed"
        assert out["error"] == "ResolutionError"


def test_fluxless_spectral_runs_on_a_fine_grid(capsys):
    code = main(["spectral", "--n-flux", "0", "--grid", "64"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["kernel_dim"] == 1


def test_spectral_json_keys_and_parametrix_norm(capsys):
    assert main(["spectral", "--n-flux", "2", "--grid", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {
        "claim",
        "kernel_dim",
        "gap_degree1",
        "parametrix_norm",
        "curvature_commutator_residual",
        "index_crosscheck",
    }
    assert out["parametrix_norm"] == out["gap_degree1"] ** -0.5


def test_symmetric_spectral_crosscheck_counts_the_kernel(capsys):
    argv = ["spectral", "--gauge", "symmetric-periodic", "--n-flux", "3", "--grid", "24"]
    assert main(argv) == 0
    cross = json.loads(capsys.readouterr().out)["index_crosscheck"]
    assert cross["kernel_dim"] == 3 and cross["match"] is True


def test_spectral_residual_runs_without_sparse_matrices(monkeypatch, capsys):
    # with the kernel cached, D+ and D+* are applied as stencils: neither
    # scipy.sparse nor scipy.sparse.linalg is touched
    class Unavailable:
        def __getattr__(self, name):
            raise AssertionError(f"sparse algebra used: {name}")

    pair = dolbeault.build_dolbeault(2, 16)
    dolbeault.kernel_basis(pair)
    monkeypatch.setattr(dolbeault, "sp", Unavailable())
    monkeypatch.setattr(dolbeault, "spla", Unavailable())
    assert dolbeault.weitzenbock_residual(pair) > 0.0
    assert main(["spectral", "--n-flux", "2", "--grid", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["curvature_commutator_residual"] == dolbeault.weitzenbock_residual(pair)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["weyl", "--N", "1"], "ValueError"),
        (["bargmann", "--s", "-1"], "ValueError"),
        (["heisenberg", "--s", "-1"], "ValueError"),
        (["toeplitz-sweep", "--fg", "no-such-symbol,cos2piy"], "FileNotFoundError"),
        # a radius below 1 is a usage error whichever option carries it
        (["algebra", "--mode", "norm", "--radius", "0"], "TruncationError"),
        (["algebra", "--mode", "norm-profile", "--radius", "-2"], "TruncationError"),
        (["module-gram", "--rep-radius", "0"], "TruncationError"),
        (["module-gram", "--radius", "0"], "ValueError"),
        # an empty range checks nothing
        (["weyl", "--N", "3..2"], "ValueError"),
        (["bargmann", "--j", "3..1"], "ValueError"),
        (["toeplitz-sweep", "--N", "5..3"], "ValueError"),
        # past these s, rounding alone nears the 1e-8 gate
        (["heisenberg", "--s", "1e-8"], "ValueError"),
        (["heisenberg", "--s", "1e12"], "ValueError"),
        (["toeplitz-sweep", "--fg", "cos2pix"], "ValueError"),
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


ELEMENT_TERM = {"n": 0, "m": 0, "re": 1.0, "im": 0.0}
SECTION_TERM = {"re": 1.0, "im": 0.0, "mux": 0.0, "muy": 0.0, "kx": 0.0, "ky": 0.0, "s": 2.0}
SYMBOL_MODE = {"j": 1, "k": 0, "re": 0.5, "im": 0.0}


def _edit(record, **changes):
    """``record`` with ``changes`` applied; a change to None drops the key."""
    out = {**record, **changes}
    return {k: v for k, v in out.items() if v is not None}


MALFORMED_RECORDS = [
    # (subcommand, decoded JSON input, fragment of the error message)
    ("algebra", {"n": 0}, "expected a list of records, got dict"),
    ("algebra", [ELEMENT_TERM, 3], "record 1 is not an object"),
    ("algebra", [_edit(ELEMENT_TERM, im=None)], "record 0 has no 'im'"),
    ("algebra", [_edit(ELEMENT_TERM, re=math.nan)], "'re' is not a finite number"),
    ("algebra", [_edit(ELEMENT_TERM, n=0.5)], "'n' is not an integer"),
    ("algebra", [_edit(ELEMENT_TERM, m="1")], "'m' is not a finite number"),
    ("algebra", [_edit(ELEMENT_TERM, re=10**400)], "'re' is not a finite number"),
    ("module-gram", SECTION_TERM, "expected a list of records, got dict"),
    ("module-gram", [[1.0]], "record 0 is not an object"),
    ("module-gram", [_edit(SECTION_TERM, s=None)], "record 0 has no 's'"),
    ("module-gram", [_edit(SECTION_TERM, re=math.inf)], "'re' is not a finite number"),
    ("toeplitz-sweep", [SYMBOL_MODE], "must hold an object with a 'modes' list"),
    ("toeplitz-sweep", {"modes": SYMBOL_MODE}, "expected a list of records, got dict"),
    ("toeplitz-sweep", {"modes": ["mode"]}, "record 0 is not an object"),
    ("toeplitz-sweep", {"modes": [_edit(SYMBOL_MODE, k=None)]}, "record 0 has no 'k'"),
    ("toeplitz-sweep", {"modes": [_edit(SYMBOL_MODE, re=-math.inf)]}, "'re' is not a finite number"),
    ("toeplitz-sweep", {"modes": [_edit(SYMBOL_MODE, j=0.5)]}, "'j' is not an integer"),
]


@pytest.mark.parametrize("command, data, message", MALFORMED_RECORDS)
def test_malformed_json_input_exits_2_with_record(command, data, message, tmp_path, capsys):
    # int() used to truncate 0.5 to 0, and a missing key escaped as a traceback
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data) + "\n")
    argv = {
        "algebra": ["algebra", "--mode", "trace", "--a", json.dumps(data)],
        "module-gram": ["module-gram", "--radius", "2", "--rep-radius", "1", "--sections", str(path)],
        "toeplitz-sweep": ["toeplitz-sweep", "--N", "4", "--samples", "1", "--fg", f"{path},cos2pix"],
    }[command]
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "usage-error" and out["error"] == "ValueError"
    assert message in out["message"]


def test_nonpositive_slack_rejected_on_argv_and_in_config(tmp_path, capsys):
    # at slack >= 1 the gap bound N (1 - slack) is <= 0, so the gate could not fail
    argv = ["spectral", "--n-flux", "1", "--grid", "16"]
    config = tmp_path / "conf.json"
    for slack in (-1, 0, 1, 5):
        assert main(argv + ["--slack", str(slack)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "usage-error" and out["message"] == "slack must lie in (0, 1)"
        config.write_text(json.dumps({"slack": slack}))
        assert main(["--config", str(config)] + argv) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "usage-error" and out["message"] == "slack must lie in (0, 1)"


@pytest.mark.parametrize("rule", ["0", "-3"])
@pytest.mark.parametrize("command", [["toeplitz-sweep", "--N", "4"], ["weyl", "--N", "2"]])
def test_grid_rule_below_1_rejected_on_argv_and_in_config(command, rule, tmp_path, capsys):
    # a rule below 1 pinned the grid to 16: a ResolutionError at N = 4, a silent pass at N = 2
    with pytest.raises(SystemExit) as exc:
        main(command + [f"--grid-rule={rule}"])
    assert exc.value.code == 2
    assert f"--grid-rule: invalid _positive_int value: '{rule}'" in capsys.readouterr().err
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"grid_rule": int(rule)}))
    assert main(["--config", str(config)] + command) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "config-error" and "--grid-rule: invalid _positive_int" in out["message"]


def test_toeplitz_sweep_one_sample_is_the_first_flux(capsys):
    assert main(["toeplitz-sweep", "--N", "4..6", "--samples", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4 and {r.split(",")[1] for r in rows} == {"4"}


def test_toeplitz_sweep_samples_span_the_smallest_and_largest_flux(capsys):
    # the picks ran from the first value given to the last, dropping N = 16
    assert main(["toeplitz-sweep", "--N", "4,16,8", "--samples", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["4", "16"] * 4
    assert cli._subsample([4, 16, 8], 1) == [4]


def test_toeplitz_sweep_takes_each_flux_once_in_ascending_order(capsys):
    # with --samples at least the number of values, the list was taken as
    # given: N = 8 first and N = 4 twice, each fitted into the running slope
    columns = []
    for samples in ("5", "2"):
        assert main(["toeplitz-sweep", "--N", "8,4,4", "--samples", samples]) == 0
        columns.append([r.split(",")[1] for r in capsys.readouterr().out.splitlines()[1:]])
    assert columns[0] == columns[1] == ["4", "8"] * 4
    assert cli._subsample([8, 4, 4], 5) == [4, 8]


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_samples_below_1_rejected_on_argv_and_in_config(samples, tmp_path, capsys):
    # a count below 1 has no first value to keep; it must not mean "all of --N"
    command = ["toeplitz-sweep", "--N", "4..6"]
    with pytest.raises(SystemExit) as exc:
        main(command + [f"--samples={samples}"])
    assert exc.value.code == 2
    assert f"--samples: invalid _positive_int value: '{samples}'" in capsys.readouterr().err
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"samples": int(samples)}))
    assert main(["--config", str(config)] + command) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "config-error" and "--samples: invalid _positive_int" in out["message"]


def _no_solve(*args):
    raise AssertionError("solved before the arguments were checked")


@pytest.mark.parametrize(
    "flux, samples, lowest",
    [("0,4,8", "2", 0), ("0", "1", 0), ("-2..4", "7", -2)],
)
def test_toeplitz_sweep_rejects_flux_below_1_before_solving(flux, samples, lowest, monkeypatch, capsys):
    # the check comes before the subsample's geomspace and before any kernel solve
    monkeypatch.setattr(dolbeault, "_kernel_data", _no_solve)
    assert main(["toeplitz-sweep", f"--N={flux}", "--samples", samples]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "usage-error"
    assert out["message"] == f"toeplitz-sweep needs flux N >= 1, got {lowest}"


def test_toeplitz_sweep_rejects_a_complex_f_before_solving(monkeypatch, capsys):
    # the trace limit needs a real f; the sweep used to solve the first kernel
    # and take three defects before the trace-limit defect refused it
    monkeypatch.setattr(dolbeault, "_kernel_data", _no_solve)
    assert main(["toeplitz-sweep", "--fg", "exp-2pix,cos2piy", "--N", "4"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "usage-error" and out["error"] == "ValueError"
    assert out["message"] == "trace limit defect is defined for real symbols"


NON_FINITE_RUNS = [
    (["spectral", "--n-flux", "1", "--grid", "16"], "slack"),
    (["algebra", "--mode", "norm-profile", "--radius", "3", "--s-grid", "0.0,0.5"], "continuity-threshold"),
    (["index", "--g", "2", "--s", "3"], "s"),
    (["algebra", "--mode", "norm", "--radius", "3"], "s"),
    (["cocycle-check", "--radius", "1"], "omega0"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, key", NON_FINITE_RUNS, ids=lambda v: v if isinstance(v, str) else v[0])
def test_non_finite_float_rejected_on_argv_and_in_config(argv, key, value, tmp_path, capsys):
    # NaN and +-inf would switch off a gate or fail as something else
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--{key}={value}"])
    assert exc.value.code == 2
    assert f"--{key}: invalid _finite_float value: '{value}'" in capsys.readouterr().err
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({key: value}))
    assert main(["--config", str(config)] + argv) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "config-error" and f"--{key}: invalid _finite_float" in out["message"]


@pytest.mark.parametrize("s_grid", ["0.0,nan", "inf", "0.5,-inf"])
def test_non_finite_s_grid_value_rejected_on_argv_and_in_config(s_grid, tmp_path, capsys):
    argv = ["algebra", "--mode", "norm-profile", "--radius", "3"]
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"s_grid": s_grid}))
    for run in (argv + [f"--s-grid={s_grid}"], ["--config", str(config)] + argv):
        assert main(run) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "usage-error" and "not a finite number" in out["message"]


@pytest.mark.parametrize("s_grid", ["0.5", "0.5,0.6"])
def test_negative_continuity_threshold_rejected_on_argv_and_in_config(s_grid, tmp_path, capsys):
    # with one s value it bounded nothing, with two it read as a failed continuity claim
    argv = ["algebra", "--mode", "norm-profile", "--radius", "3", "--s-grid", s_grid]
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"continuity_threshold": -1}))
    for run in (argv + ["--continuity-threshold", "-1"], ["--config", str(config)] + argv):
        assert main(run) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "usage-error" and out["error"] == "ValueError"
        assert "continuity threshold must be at least 0" in out["message"]


@pytest.mark.parametrize(
    "argv",
    [["--mode", "norm", "--s", "1e308"], ["--mode", "norm-profile", "--s-grid", "1e308,0.5"]],
    ids=["norm", "norm-profile"],
)
def test_overflowing_twist_exits_2_before_any_factorization(argv, monkeypatch, capsys):
    # s * phase overflowed to inf: NaN entries, 60 failed factorizations and exit 1
    monkeypatch.setattr(algebra, "_gram_top", None)
    assert main(["algebra", *argv]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "usage-error" and out["error"] == "ValueError"
    assert "not a finite angle" in out["message"]


def test_mult_with_an_overflowing_twist_exits_2_naming_the_twist(capsys):
    assert main(["algebra", "--mode", "mult", "--s", "1e308"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "error": "ValueError",
        "message": "twist s = 1e+308 times a cocycle value is not a finite angle",
        "status": "usage-error",
    }


def _two_hops(c: float) -> str:
    return json.dumps([{"n": 1, "m": 0, "re": c, "im": 0}, {"n": 0, "m": 1, "re": c, "im": 0}])


def test_norm_of_extreme_coefficients_is_the_scaled_unit_norm(capsys):
    # l1**2 overflowed at 1e160; the bracket stayed open at 1e-160; at 1e-170
    # the Gram entries underflowed to an empty band
    assert main(["algebra", "--mode", "norm", "--radius", "3", "--a", _two_hops(1.0)]) == 0
    unit = json.loads(capsys.readouterr().out)["norm"]
    for c in (1e160, 1e-160, 1e-170):
        assert main(["algebra", "--mode", "norm", "--radius", "3", "--a", _two_hops(c)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["norm"] == pytest.approx(c * unit, rel=1e-12, abs=0.0)


def test_norm_of_an_element_with_a_hop_beyond_int64_exits_0(capsys):
    far = json.dumps([{"n": 0, "m": 0, "re": 1, "im": 0}, {"n": 1e20, "m": 0, "re": 1, "im": 0}])
    with pytest.warns(UserWarning, match="lossy"):
        assert main(["algebra", "--mode", "norm", "--radius", "2", "--a", far]) == 0
    assert json.loads(capsys.readouterr().out)["norm"] == 1.0


def test_norm_with_an_overflowing_l1_norm_exits_2_naming_it(monkeypatch, capsys):
    monkeypatch.setattr(algebra, "_gram_top", None)
    assert main(["algebra", "--mode", "norm", "--radius", "3", "--a", _two_hops(1e308)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "error": "ValueError",
        "message": "the l1 norm of the element's coefficients overflows a float",
        "status": "usage-error",
    }


def test_mult_with_an_overflowing_product_exits_2_with_one_record(tmp_path, capsys):
    # the product's coefficients were printed as Infinity, not JSON, with exit 0
    big = json.dumps([{"n": 1, "m": 0, "re": 1e200, "im": 0}])
    other = json.dumps([{"n": 0, "m": 1, "re": 1e200, "im": 0}])
    output = tmp_path / "product.json"
    for target in ([], ["--output", str(output)]):
        assert main(["algebra", "--mode", "mult", "--a", big, "--b", other, *target]) == 2
        # one record of strict JSON, with no partial product before it
        out = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(name))
        assert out["status"] == "usage-error" and out["error"] == "ValueError"
        assert "not JSON compliant" in out["message"]
    assert not output.exists()


@pytest.mark.parametrize(
    "options, error, message",
    [
        (["--radius", "0"], "ValueError", "truncation radius must be >= 1"),
        (["--radius", "0", "--rep-radius", "0"], "ValueError", "truncation radius must be >= 1"),
        (["--rep-radius", "0"], "TruncationError", "truncation radius must be positive, got 0"),
        (["--s", "1e308"], "ValueError", "twist s = 1e+308 times a cocycle value is not a finite angle"),
    ],
)
def test_module_gram_error_records_come_before_any_pairing(options, error, message, monkeypatch, capsys):
    # the radius is checked first, the rep radius and the twist by the twist table
    monkeypatch.setattr(sections, "l2_inner", None)
    assert main(["module-gram", *options]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": error, "message": message, "status": "usage-error"}


def test_solver_non_convergence_exits_1_with_record(monkeypatch, capsys):
    # one Rayleigh-Ritz step cannot converge the chain iteration of a fresh kernel solve
    monkeypatch.setattr(dolbeault, "_MAX_ITERATIONS", 1)
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


@pytest.mark.parametrize("s", ["0.1", "0.25", "1.5", "3.3", "100"])
def test_heisenberg_passes_at_every_s(s, capsys):
    # the translates are exact Gaussian sections, so no s is too small
    code = main(["heisenberg", "--s", s])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["claim"] == "heisenberg-generators"
    assert max(out["scalar_deviation"], out["commutator_residual"]) <= 1e-12


@pytest.mark.parametrize("s", ["1e-6", "1e9"])
def test_heisenberg_passes_at_the_ends_of_its_range(s, capsys):
    code = main(["heisenberg", "--s", s])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert max(out["scalar_deviation"], out["commutator_residual"], out["zero_mode_residual"]) <= 1e-8


@pytest.mark.parametrize("fg", ["cos2pix", "cos2pix,", ",cos2piy", "cos2pix,cos2piy,sin2pix"])
def test_toeplitz_sweep_names_the_form_of_fg(fg, capsys):
    # one symbol used to read "not enough values to unpack", an empty name a missing file ''
    assert main(["toeplitz-sweep", "--fg", fg]) == 2
    assert json.loads(capsys.readouterr().out)["message"] == f"--fg takes two symbols as 'f,g', got {fg!r}"


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
        return cmath.exp(-2j * math.pi / n) + 2e-8

    monkeypatch.setattr(toeplitz, "weyl_relation", off_by)
    code = main(["weyl", "--N", "2..3"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 1
    assert rows[0] == "claim,N,re,im,deviation"
    assert [float(r.split(",")[-1]) for r in rows[1:]] == pytest.approx([2e-8, 2e-8], rel=1e-6)


def test_weyl_gate_fails_on_the_reversed_orientation(monkeypatch, capsys):
    # e^{+2 pi i/3} is a root of unity of the right order, in the other orientation
    monkeypatch.setattr(toeplitz, "weyl_relation", lambda n, grid: cmath.exp(2j * math.pi / n))
    code = main(["weyl", "--N", "3"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 1
    assert float(rows[1].split(",")[-1]) == pytest.approx(math.sqrt(3.0))


def test_bargmann_gate_fails_past_1e_8(monkeypatch, capsys):
    pairing = sections.l2_inner

    def off_by(psi, phi):
        return pairing(psi, phi) + 2e-8

    monkeypatch.setattr(sections, "l2_inner", off_by)
    code = main(["bargmann", "--j", "0..1", "--k", "0"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 1
    assert rows[0] == "claim,j,k,re,im,closed_form,deviation"
    assert len(rows) == 3
    assert all(float(r.split(",")[-1]) > 1e-8 for r in rows[1:])


@pytest.mark.parametrize("which", ["scalar", "commutator", "zero_mode"])
def test_heisenberg_gate_fails_past_1e_8(which, monkeypatch, capsys):
    check = sections.heisenberg_generator_check

    def off_by(s):
        report = dict(check(s))
        if which == "scalar":
            report["group_commutator_scalar"] = report["group_commutator_expected"] + 2e-8
        else:
            report[f"{which}_residual"] = 2e-8
        return report

    monkeypatch.setattr(sections, "heisenberg_generator_check", off_by)
    code = main(["heisenberg"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["claim"] == "heisenberg-generators"
    key = "scalar_deviation" if which == "scalar" else f"{which}_residual"
    assert out[key] == pytest.approx(2e-8, rel=1e-6)


def test_heisenberg_gate_fails_on_the_reversed_orientation(monkeypatch, capsys):
    check = sections.heisenberg_generator_check

    def reversed_expectation(s):
        return {**check(s), "group_commutator_expected": cmath.exp(2j * math.pi / s)}

    monkeypatch.setattr(sections, "heisenberg_generator_check", reversed_expectation)
    code = main(["heisenberg", "--s", "1.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["scalar_deviation"] == pytest.approx(math.sqrt(3.0))


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


def test_module_gram_sections_of_another_width_than_s_exit_2(tmp_path, capsys):
    # the twist used --s (default 2.0) while the sections paired with their
    # own width: a false -0.67 minimum eigenvalue and exit 1
    path = tmp_path / "sections.jsonl"
    path.write_text(json.dumps([_edit(SECTION_TERM, s=1.5)]) + "\n")
    argv = ["module-gram", "--radius", "2", "--rep-radius", "1", "--sections", str(path)]
    assert main(argv) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "usage-error" and out["error"] == "ValueError"
    assert out["message"] == "section width s = 1.5 differs from the twist s = 2.0"
    assert main(argv + ["--s", "1.5"]) == 0
    assert json.loads(capsys.readouterr().out)["min_eigenvalue"] >= -1e-9


def test_module_gram_empty_sections_file_exits_2(tmp_path, capsys):
    # it escaped main as an IndexError traceback
    path = tmp_path / "sections.jsonl"
    path.write_text("\n")
    assert main(["module-gram", "--radius", "2", "--rep-radius", "1", "--sections", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "usage-error" and out["error"] == "ValueError"
    assert out["message"] == "no sections to pair"


def test_module_gram_gate_fails_past_minus_1e_9(monkeypatch, capsys):
    report = {"min_eigenvalue": -2e-9, "dimension": 9, "tail_bound": 0.0}
    monkeypatch.setattr(sections, "gram_positivity", lambda *args: report)
    code = main(["module-gram", "--radius", "3", "--rep-radius", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["claim"] == "module-gram-positivity"
    assert out["min_eigenvalue"] == -2e-9
