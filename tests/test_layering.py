"""Module dependency order: alphapoly <- gegenbauer <- report <- quadrature
<- verify <- cli.  No module imports one that comes after it, and none
imports numpy: only the direct quadrature route does, when first called."""
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
    # only the direct quadrature route uses numpy, and it imports it on first call
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

    commands = next(action for action in cli._build_parser()._actions
                    if action.dest == "command")
    suite = next(action for action in commands.choices["verify"]._actions
                 if action.dest == "suite")
    assert suite.choices == sorted(("all", *verify.SUITES))
    assert tuple(verify.SUITES) == report.SUITE_NAMES
