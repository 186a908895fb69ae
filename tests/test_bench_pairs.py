"""scripts/bench_pairs.py's summary of paired benchmark runs, on synthetic
runs (no subprocess, no git)."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(**metrics):
    """One side's runs from per-metric value lists of equal length."""
    count = len(next(iter(metrics.values())))
    return [{"metrics": {name: {"value": values[i]} for name, values in metrics.items()}}
            for i in range(count)]


def test_outliers_lie_past_one_and_a_half_times_the_median(bench_pairs):
    values = [1.0, 1.1, 0.9, 1.5, 1.51, 0.667, 0.66, 1.0]
    assert bench_pairs.outliers(values) == [4, 6]
    assert bench_pairs.outliers([2.0] * 5) == []


def test_summarize(bench_pairs):
    runs = {"parent": _runs(wall_s=[0.15, 0.0785, 0.16, 0.14, 0.15],
                            ok_share=[1.0, 1.0, 0.5, 1.0, 1.0]),
            "change": _runs(wall_s=[0.10, 0.11, 0.163, 0.09, 0.2],
                            ok_share=[1.0, 1.0, 1.0, 1.0, 0.9])}
    table = bench_pairs.summarize(runs)
    wall = table["wall_s"]
    assert wall["parent_median"] == 0.15 and wall["change_median"] == 0.11
    assert wall["change_vs_parent"] == pytest.approx(0.11 / 0.15)
    assert wall["parent_iqr"] == pytest.approx(0.01)
    # lower is better: pairs 1 and 4 won; pair 2 (0.0785 against 0.11) lost
    assert wall["change_better_pairs"] == 2
    # 0.0785 is past 0.15 / 1.5, and 0.2 past 1.5 * 0.11
    assert wall["parent_outliers"] == [1] and wall["change_outliers"] == [4]
    share = table["ok_share"]
    # higher is better: only pair 3 (1.0 against 0.5) counts
    assert share["change_better_pairs"] == 1
    assert share["parent_outliers"] == [2] and share["change_outliers"] == []
