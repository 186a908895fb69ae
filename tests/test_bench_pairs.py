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


def test_bounds_are_read_from_the_benchmark_file(bench_pairs):
    limits = bench_pairs.bounds()
    assert limits["wall_s"] > 0 and "ok_share" in limits


def _row(bench_pairs, name, parent, change):
    return bench_pairs.summarize({"parent": _runs(**{name: parent}),
                                  "change": _runs(**{name: change})})[name]


PARENT = [0.8, 0.9, 1.0, 1.1, 1.2] * 2  # median 1.0, IQR 0.2


@pytest.mark.parametrize("change,wins,expected", [
    # nine of ten pairs won, median gap 0.3 against the parent's IQR of 0.2
    ([0.7] * 9 + [1.3], 9, "claim holds"),
    # eight won: under nine tenths
    ([0.7] * 8 + [1.3] * 2, 8, "claim not met"),
    # every pair won, by less than the parent's IQR
    ([p - 0.05 for p in PARENT], 10, "claim not met"),
])
def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr(
        bench_pairs, change, wins, expected):
    row = _row(bench_pairs, "wall_s", PARENT, change)
    assert row["parent_iqr"] == pytest.approx(0.2)
    assert row["change_better_pairs"] == wins
    assert bench_pairs.verdict("wall_s", row, 0.25, claimed=True).split(":")[0] == expected


@pytest.mark.parametrize("name,change,expected", [
    # every pair won, past the parent's IQR of 0, by 30% against a 25% bound
    ("wall_s", [0.7] * 10, "claim holds: gain 30% vs bound 25%"),
    # the same wins by 20%: not past the bound
    ("wall_s", [0.8] * 10, "claim not met: gain 20% vs bound 25%"),
    # higher is better for ok_share: the gain is the rise
    ("ok_share", [1.3] * 10, "claim holds: gain 30% vs bound 25%"),
])
def test_a_claimed_gain_must_exceed_the_bound(bench_pairs, name, change, expected):
    row = _row(bench_pairs, name, [1.0] * 10, change)
    assert row["change_better_pairs"] == 10 and row["parent_iqr"] == 0
    assert bench_pairs.verdict(name, row, 0.25, claimed=True) == expected


@pytest.mark.parametrize("name,parent,change,expected", [
    ("wall_s", [1.0] * 4, [1.2] * 4, "within its bound 0.25"),
    ("wall_s", [1.0] * 4, [1.3] * 4, "worse than its bound 0.25"),
    # higher is better: 0.85 is 15% below 1.0, past a 10% bound
    ("ok_share", [1.0] * 4, [0.85] * 4, "worse than its bound 0.1"),
    ("ok_share", [0.5] * 4, [0.9] * 4, "within its bound 0.1"),
    # the parent spreads wider than the bound: no worse is not the same as unchanged
    # (IQR 0.75 about a median of 1.0)
    ("wall_s", [0.5, 1.0, 1.5] * 2, [1.05] * 6, "unresolved: parent IQR wider than its bound 0.25"),
    # unless every change run beats every parent run
    ("wall_s", [0.5, 1.0, 1.5] * 2, [0.4] * 6, "within its bound 0.25"),
])
def test_an_unclaimed_metric_is_judged_by_its_bound(bench_pairs, name, parent, change, expected):
    row = _row(bench_pairs, name, parent, change)
    bound = {"wall_s": 0.25, "ok_share": 0.1}[name]
    assert bench_pairs.verdict(name, row, bound, claimed=False) == expected
    assert bench_pairs.verdict(name, row, None, claimed=False) == "no bound"


@pytest.mark.parametrize("parent,change,expected", [
    # medians 1.0 and 0.7, a gap of 0.3 past the parent's IQR of 0.2
    (PARENT, [0.7] * 10, "lower by 30%"),
    (PARENT, [1.3] * 10, "higher by 30%"),
    # a gap of 0.1 inside the parent's IQR
    (PARENT, [0.9] * 10, "no change past the parent's IQR"),
    (PARENT, [1.1] * 10, "no change past the parent's IQR"),
])
def test_a_cli_verdict_counts_a_change_only_past_the_parent_iqr(
        bench_pairs, parent, change, expected):
    row = _row(bench_pairs, "wall_s", parent, change)
    assert bench_pairs.cli_verdict(row) == expected


@pytest.mark.parametrize("parent,change,expected", [
    ([0, 0, 0], [0, 0, 0], None),
    ([3, 3], [3, 3], None),
    # one pair differs
    ([0, 0, 0], [0, 2, 0], "EXIT CODES DIFFER: parent [0], change [0, 2]"),
    # the same codes, in other pairs
    ([0, 3], [3, 0], "EXIT CODES DIFFER: parent [0, 3], change [0, 3]"),
])
def test_differing_exit_codes_are_flagged(bench_pairs, parent, change, expected):
    assert bench_pairs.exit_code_flag(parent, change) == expected
