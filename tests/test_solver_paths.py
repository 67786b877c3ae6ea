import ast
import re
from pathlib import Path

import quantlab
from quantlab import errors

SOURCES = sorted(Path(quantlab.__file__).parent.glob("*.py"))


def test_no_arpack_call_in_the_library():
    # every eigen/singular value in src/ comes from one of the certified
    # solvers (banded-Cholesky bracket, chain subspace iteration, dense LAPACK)
    assert SOURCES
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"eigsh|svds|Arpack", line)
    ]
    assert hits == []


ERROR_TYPES = [
    name
    for name, kind in vars(errors).items()
    if isinstance(kind, type) and issubclass(kind, errors.QuantLabError)
    and kind is not errors.QuantLabError
]


def test_every_error_type_is_raised_in_the_library():
    # an error type nothing raises is a dead guard that callers still catch
    assert ERROR_TYPES
    text = "\n".join(path.read_text() for path in SOURCES)
    assert [name for name in ERROR_TYPES if not re.search(rf"\braise {name}\(", text)] == []


def test_every_error_type_is_named_in_a_test():
    # an error type no test names is a raise no test has run; the scans here do not count
    tests = [path for path in Path(__file__).parent.glob("test_*.py") if path.name != Path(__file__).name]
    text = "\n".join(path.read_text() for path in tests)
    assert ERROR_TYPES
    assert [name for name in ERROR_TYPES if not re.search(rf"\b{name}\b", text)] == []


def test_no_function_local_import_in_the_library():
    # every module states its imports at the top, where a reader and a tracer
    # that rebinds module attributes both find them
    assert SOURCES
    hits = [
        f"{path.name}:{node.lineno}: {func.name}"
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert hits == []


def test_every_module_constant_is_read_in_the_library():
    # an UPPER_CASE constant nothing reads is a dead knob: setting it changes
    # nothing; a private module-level function or class nothing reads is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    names = [
        (name, target.id)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
    ]
    names += [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    ]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert names
    assert [f"{name}: {item}" for name, item in names if item not in read] == []


def test_every_cli_handler_returns_zero_or_the_gate():
    # one rule decides every exit code a subcommand returns: the literal 0
    # (report-only) or a call of algebra.gate_fails
    tree = ast.parse((Path(quantlab.__file__).parent / "cli.py").read_text())
    handlers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")]
    assert len(handlers) >= 8
    hits = [
        f"{func.name}:{node.lineno}: {ast.unparse(node)}"
        for func in handlers
        for node in ast.walk(func)
        if isinstance(node, ast.Return)
        and ast.unparse(node) != "return 0"
        and not (isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "algebra.gate_fails")
    ]
    assert hits == []


def test_every_subcommand_not_labelled_report_only_returns_the_gate():
    # a subcommand's --help ends "(report-only)" exactly when its handler
    # judges nothing: any other subcommand prints a claim that one of its
    # returns judges with algebra.gate_fails
    tree = ast.parse((Path(quantlab.__file__).parent / "cli.py").read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    labels = {}  # handler -> (subcommand, help)
    for stmt in functions["build_parser"].body:
        call = getattr(stmt, "value", None)
        if not isinstance(call, ast.Call):
            continue
        keywords = {k.arg: k.value for k in call.keywords}
        if ast.unparse(call.func) == "sub.add_parser":
            command = (call.args[0].value, ast.literal_eval(keywords["help"]))
        elif ast.unparse(call.func) == "p.set_defaults":
            labels[keywords["func"].id] = command
    assert len(labels) >= 9
    gated = {
        name
        for name in labels
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "algebra.gate_fails"
    }
    hits = [
        command
        for name, (command, text) in labels.items()
        if (name in gated) == text.endswith("(report-only)")
    ]
    assert hits == []


def test_no_warnings_filter_private_import_or_argparse_internal_in_the_library():
    # each decision is made once, where its data lives: no call changes the
    # process-wide warnings filters, imports another module's private name,
    # or reads argparse's internals to rebuild what a parse already names
    assert SOURCES
    hits = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "quantlab"):
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and (
                ast.unparse(node) in ("warnings.catch_warnings", "warnings.simplefilter")
                or node.attr == "_actions"
                or (ast.unparse(node.value) == "argparse" and node.attr.startswith("_"))
            ):
                names = [ast.unparse(node)]
            else:
                continue
            hits += [f"{path.name}:{node.lineno}: {name}" for name in names]
    assert hits == []
