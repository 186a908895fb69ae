"""Layer micro-benchmarks: the three exact constructors and the exact inner
product at degrees 8, 32 and 64, plus the end-to-end wall time of
`congeg verify --n-max 24` in a fresh interpreter.

This directory is outside the test suite's `testpaths`; run it explicitly
from the repository root:

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=layers.json

The file times whichever `congeg` is importable, so pointing PYTHONPATH at
another checkout's `src` times that tree with the same benchmarks.
"""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import congeg
from congeg.gegenbauer import GegenbauerSpec, from_recurrence, from_rodrigues, from_series
from congeg.quadrature import conformable_inner_product

DEGREES = (8, 32, 64)
LAM = Fraction(5, 2)
ALPHA = Fraction(1, 2)


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("route", [from_series, from_recurrence, from_rodrigues],
                         ids=lambda route: route.__name__)
def test_constructor(benchmark, route, n):
    spec = GegenbauerSpec(n, LAM, ALPHA)
    assert benchmark(route, spec) == from_series(spec)


@pytest.mark.parametrize("n", DEGREES)
def test_inner_product(benchmark, n):
    # steady state of a sweep: the per-degree caches are filled by the first round
    result = benchmark(conformable_inner_product, n, n, LAM, ALPHA)
    assert result.value > 0 and result.nodes_used == 0


def test_cli_verify_n_max_24(benchmark):
    env = {**os.environ, "PYTHONPATH": str(Path(congeg.__file__).resolve().parents[1])}
    cmd = [sys.executable, "-m", "congeg", "verify", "--n-max", "24"]
    proc = benchmark.pedantic(subprocess.run, args=(cmd,),
                              kwargs={"env": env, "capture_output": True},
                              rounds=5, iterations=1)
    assert proc.returncode == 0
