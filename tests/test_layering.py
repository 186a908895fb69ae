"""Module dependency order: alphapoly <- gegenbauer <- report <- quadrature
<- verify <- cli.  No module imports one that comes after it, and none
imports numpy at import time: the direct quadrature route imports it when
first called, and float evaluation, in `alphapoly._by_point_or_column`
alone, when a list reaches `alphapoly._COLUMN_POINTS` points.  Every name a
module imports at module level is used there."""
import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import congeg

ORDER = ("alphapoly", "gegenbauer", "report", "quadrature", "verify", "cli")


@pytest.mark.parametrize("index", range(len(ORDER)), ids=ORDER)
def test_imports_only_earlier_layers(index):
    # The package __init__ re-exports every layer, so the probe imports the
    # module in a fresh interpreter under a bare package object instead.
    probe = textwrap.dedent(f"""
        import sys, types
        package = types.ModuleType("congeg")
        package.__path__ = [{str(Path(congeg.__file__).parent)!r}]
        sys.modules["congeg"] = package
        import congeg.{ORDER[index]}
        print(sorted(name for name in sys.modules
                     if name.startswith("congeg.") or name == "numpy"))
    """)
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    assert f"congeg.{ORDER[index]}" in loaded
    assert not loaded & {f"congeg.{name}" for name in ORDER[index + 1:]}
    # numpy is imported where it is first used, never with a module
    assert "numpy" not in loaded


def _loaded(*argv):
    """Full names of every module a fresh interpreter imports while running
    argv, from its -X importtime log, and its exit code."""
    env = {**os.environ, "PYTHONPATH": str(Path(congeg.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, env=env)
    return ({line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines() if line.startswith("import time:")},
            proc.returncode)


def _imported(*argv):
    """Top-level names of every module a fresh interpreter imports while
    running argv, and its exit code."""
    modules, code = _loaded(*argv)
    return {name.split(".")[0] for name in modules}, code


@pytest.mark.parametrize("command", [("table",), ("eval", "--n", "4", "--x", "0.5"),
                                     ("plot-data",), ("verify", "--n-max", "4"),
                                     ("audit",)], ids=" ".join)
def test_cli_commands_never_load_numpy(command):
    modules, code = _imported("-m", "congeg", *command)
    assert code == 0
    assert "congeg" in modules and "numpy" not in modules


@pytest.mark.parametrize("samples,loads_numpy", [(255, False), (256, True)])
def test_plot_data_loads_numpy_only_for_long_point_lists(samples, loads_numpy):
    # the column-wise evaluator starts at alphapoly._COLUMN_POINTS points
    modules, code = _imported("-m", "congeg", "plot-data", "--samples", str(samples))
    assert code == 0
    assert "congeg" in modules and ("numpy" in modules) == loads_numpy


def _functions_where(holds):
    """module.function for every function in the package whose own body,
    outside any function nested in it, has a node for which `holds` is true."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if any(map(holds, _own_nodes(child))):
                    found.append(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    for path in sorted(Path(congeg.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _own_nodes(function):
    """The nodes of a function's or a loop's body, not descending into nested
    functions."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_numpy_is_imported_by_the_one_dispatcher_and_the_direct_route():
    # float evaluation's loop bodies run on a float or a numpy column alike;
    # only the dispatcher knows which, and only it imports numpy
    assert sorted(_functions_where(_imports_numpy)) == [
        "alphapoly._by_point_or_column",
        "quadrature._tanh_sinh_nodes",
        "quadrature.conformable_inner_product_direct",
    ]


def test_gegenbauer_does_not_know_the_column_threshold():
    source = (Path(congeg.__file__).parent / "gegenbauer.py").read_text(encoding="utf-8")
    names = {getattr(node, field, None) for node in ast.walk(ast.parse(source))
             for field in ("id", "name", "attr")}
    assert "_COLUMN_POINTS" not in names


def _is_product_loop(node):
    """A `for` loop with a `*=` whose right-hand side reads the loop's
    variable: a product over a progression written by hand."""
    if not isinstance(node, ast.For):
        return False
    names = {name.id for name in ast.walk(node.target) if isinstance(name, ast.Name)}
    return any(isinstance(step, ast.AugAssign) and isinstance(step.op, ast.Mult)
               and any(isinstance(read, ast.Name) and read.id in names
                       for read in ast.walk(step.value))
               for step in _own_nodes(node))


def test_rising_products_are_formed_by_the_one_helper():
    # every full product over an arithmetic progression is alphapoly._rising;
    # the moment walk keeps each reduced prefix, so it stays a loop
    assert _functions_where(_is_product_loop) == ["quadrature._scaled_moments"]


def _checks_for_bool(node):
    """A call isinstance(<x>, bool): a hand-written check of an argument's kind."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name) and node.args[1].id == "bool")


def test_argument_kinds_are_checked_in_alphapoly_alone():
    # an order, an integer, a count, a rational, a tolerance and a
    # coefficient each have one checker in alphapoly; every layer calls it
    found = _functions_where(_checks_for_bool)
    assert found and all(name.startswith("alphapoly._as_") for name in found), found


COMMAND_ARGVS = [
    ("-c", "import congeg.cli"), ("-m", "congeg", "table"),
    ("-m", "congeg", "eval", "--n", "4", "--x", "0.5"), ("-m", "congeg", "plot-data"),
    ("-m", "congeg", "verify"), ("-m", "congeg", "verify", "--json"), ("-m", "congeg", "audit"),
]


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
def test_no_command_loads_dataclasses(argv):
    # `dataclasses` imports `inspect` (with ast, dis and tokenize), about a
    # third of what importing the CLI took; the records are built without it
    modules, code = _loaded(*argv)
    assert code == 0 and "congeg.cli" in modules
    assert not modules & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [*COMMAND_ARGVS, ("-m", "congeg", "-h"),
                                  ("-m", "congeg", "eval", "--help")], ids=" ".join)
def test_no_command_loads_argparse(argv):
    # argparse and the gettext it imports took about 3 ms of a fresh process,
    # and building the parser 4-5 ms more; the option table scans argv itself
    modules, code = _loaded(*argv)
    assert code == 0 and "congeg.cli" in modules
    assert not modules & {"argparse", "gettext"}


@pytest.mark.parametrize("argv,loads_json", [
    (("table",), False), (("audit", "--n-max", "2"), False), (("verify", "--n-max", "4"), False),
    (("verify", "--n-max", "4", "--json"), True), (("table", "--config", "cfg.json"), True),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_json_loads_only_for_a_config_file_or_json_output(tmp_path, monkeypatch, argv,
                                                          loads_json):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"n_max": 2}')
    modules, code = _loaded("-m", "congeg", *argv)
    assert code == 0
    assert ("json" in modules) == loads_json


def test_direct_route_loads_numpy_on_first_call():
    # the probe above sees a lazy import when one happens
    modules, code = _imported("-c", "from congeg.quadrature import "
                              "conformable_inner_product_direct as direct; direct(1, 1, 1, 1)")
    assert code == 0 and "numpy" in modules


@pytest.mark.parametrize("command", [("table",), ("eval", "--n", "4", "--x", "0.5"),
                                     ("plot-data",)], ids=" ".join)
def test_curve_commands_load_neither_the_checks_nor_quadrature(command):
    modules, code = _loaded("-m", "congeg", *command)
    assert code == 0
    assert {"congeg.alphapoly", "congeg.gegenbauer", "congeg.cli"} <= modules
    assert not modules & {"congeg.verify", "congeg.quadrature", "json"}


def test_bare_package_import_loads_no_layer():
    modules, code = _loaded("-c", "import congeg")
    assert code == 0
    assert "congeg" in modules
    assert not [name for name in modules if name.startswith("congeg.")]


def test_every_exported_name_is_its_home_module_object():
    # in a fresh interpreter, so that every name resolves through the
    # package's lazy lookup and not from an earlier import
    probe = textwrap.dedent("""
        import sys
        from congeg import *
        import congeg
        names = [name for name in congeg.__all__ if name != "__version__"]
        wrong = [name for name in names
                 if getattr(sys.modules[globals()[name].__module__], name)
                 is not globals()[name]
                 or not globals()[name].__module__.startswith("congeg.")]
        print([wrong, sorted(set(congeg.__all__) - set(globals())),
               hasattr(congeg, "no_such_name"), set(congeg.__all__) <= set(dir(congeg))])
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(congeg.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, check=True)
    assert ast.literal_eval(proc.stdout) == [[], [], False, True]


def test_suite_choices_are_the_registry():
    import congeg.cli as cli
    import congeg.report as report
    import congeg.verify as verify

    suite = next(option for option in cli._COMMANDS["verify"][2] if option[1] == "suite")
    convert = suite[3]
    names = sorted(("all", *verify.SUITES))
    assert [convert(name) for name in names] == names
    with pytest.raises(ValueError, match="choose from " + ", ".join(names)):
        convert("nope")
    assert ", ".join(names) in suite[-1]  # the help lists them
    assert tuple(verify.SUITES) == report.SUITE_NAMES


def _unused_imports(source):
    """Names bound by the module-level imports of `source` that the module
    never reads; `from __future__ import annotations` binds none."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_unused_import_check_sees_a_leftover():
    assert _unused_imports("from typing import Callable, Sequence\nf: Callable") == ["Sequence"]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos") == []


@pytest.mark.parametrize("path", sorted(Path(congeg.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
