"""Module dependency order: alphapoly <- gegenbauer <- report <- quadrature
<- verify <- cli.  No module imports one that comes after it."""
import ast
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
        print(sorted(name for name in sys.modules if name.startswith("congeg.")))
    """)
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    assert f"congeg.{ORDER[index]}" in loaded
    assert not loaded & {f"congeg.{name}" for name in ORDER[index + 1:]}
