"""The pinned CLI corpus: each argv of scripts/cli_corpus.py, run through
`cli.main` in process, reproduces its file under tests/golden/cli/ byte for
byte (exit code, stdout and stderr).  After a deliberate output change,
rewrite the files with `PYTHONPATH=src python scripts/cli_corpus.py` and
review their diff."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_corpus.py"
_spec = importlib.util.spec_from_file_location("cli_corpus", SCRIPT)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def test_every_file_belongs_to_an_argv():
    assert sorted(path.name for path in corpus.GOLDEN.glob("*")) == sorted(
        map(corpus.file_name, corpus.CORPUS))


@pytest.mark.parametrize("argv", corpus.CORPUS, ids=" ".join)
def test_output_matches_its_file(argv):
    # `corpus.run` calls `cli.main(argv)` and captures its stdout and stderr
    expected = (corpus.GOLDEN / corpus.file_name(argv)).read_text(encoding="utf-8")
    assert corpus.run(argv) == expected
