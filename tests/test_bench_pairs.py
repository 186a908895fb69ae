"""scripts/bench_pairs.py's summary of paired benchmark runs, on synthetic
runs (no git, and no subprocess but one interpreter that fails at once)."""
import importlib.util
import json
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
    assert bench_pairs.verdict("wall_s", row, None, claimed=False) == expected


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


class StubRuns:
    """`export`, `run_once` and `run_cli` without git or a subprocess: each
    tree holds a `src/congeg` of a given line count, and every run is
    logged as (side, job) with the metrics `value_of(side, job)`."""

    def __init__(self, monkeypatch, bench_pairs, lines=None):
        self.lines = lines or {"parent": 10, "change": 7}
        self.log, self.correct, self.exit_codes, self.broken = [], True, {}, None
        monkeypatch.setattr(bench_pairs, "export", self.export)
        monkeypatch.setattr(bench_pairs, "run_once", self.run_once)
        monkeypatch.setattr(bench_pairs, "run_cli", self.run_cli)

    def export(self, ref, dest):
        package = dest / "src" / "congeg"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n" * self.lines[dest.name])
        return f"{ref}-commit"

    def _metrics(self, side, names):
        value = 1.0 if side == "parent" else 0.9
        return {name: {"value": value} for name in names}

    def run_once(self, tree, workload, seed):
        self.log.append((tree.name, workload, seed))
        if self.broken == workload:
            raise RuntimeError(f"{tree.name} seed {seed}: exit 1")
        return {"correct": self.correct, "attempted": 4, "failed": 0,
                "metrics": self._metrics(tree.name, ("wall_s", "ok_share"))}

    def run_cli(self, tree, args):
        self.log.append((tree.name, f"cli {args}", None))
        return {"metrics": self._metrics(tree.name, ("wall_s", "peak_rss_mib")),
                "exit_code": self.exit_codes.get(tree.name, 0)}


ARGV = ["--pairs", "3", "--workload", "verify", "--workload", "curves", "--seed0", "50",
        "--cli", "eval --n 4 --x 0.5", "--parent", "p", "--change", "c"]


def test_one_run_writes_every_job(bench_pairs, monkeypatch, tmp_path, capsys):
    StubRuns(monkeypatch, bench_pairs)
    out = tmp_path / "bench.json"
    argv = [*ARGV, "--claim", "verify/wall_s", "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    data = json.loads(out.read_text())
    assert list(data) == ["schema", "argv", "pairs", "seed0", "commits",
                          "src_congeg_lines", "jobs"]
    assert (data["schema"], data["argv"], data["pairs"], data["seed0"]) == (1, argv, 3, 50)
    assert data["commits"] == {"parent": "p-commit", "change": "c-commit"}
    assert data["src_congeg_lines"] == {"parent": 10, "change": 7}
    jobs = data["jobs"]
    assert list(jobs) == ["verify", "curves", "cli eval --n 4 --x 0.5"]
    for job in ("verify", "curves"):
        assert sorted(jobs[job]) == ["attempted", "correct", "failed", "metrics"]
        assert jobs[job]["correct"] == {"parent": [True] * 3, "change": [True] * 3}
    cli = jobs["cli eval --n 4 --x 0.5"]
    assert sorted(cli) == ["exit_codes", "exit_codes_differ", "metrics"]
    assert cli["exit_codes"] == {"parent": [0] * 3, "change": [0] * 3}
    assert cli["exit_codes_differ"] is False
    row = jobs["verify"]["metrics"]["wall_s"]
    assert {"verdict", "change_iqr", "parent_median", "change_better_pairs",
            "parent_runs", "parent_outliers"} <= row.keys()
    # the claimed metric gains 10% against a bound of 25%; an unclaimed one
    # keeps its bound; a CLI metric has none
    assert row["verdict"] == "claim not met: gain 10% vs bound 25%"
    assert jobs["curves"]["metrics"]["wall_s"]["verdict"] == "within its bound 0.25"
    assert cli["metrics"]["wall_s"]["verdict"] == "lower by 10%"
    assert "(10 lines of src/congeg)" in capsys.readouterr().out


def test_pairs_alternate_which_side_runs_first(bench_pairs, monkeypatch):
    stub = StubRuns(monkeypatch, bench_pairs)
    assert bench_pairs.main(ARGV) == 0
    first, second = ("parent", "change"), ("change", "parent")
    expected = [(side, job, seed)
                for i, order in enumerate([first, second, first])
                for job, seed in (("verify", 50 + i), ("curves", 50 + i),
                                  ("cli eval --n 4 --x 0.5", None))
                for side in order]
    assert stub.log == expected


@pytest.mark.parametrize("extra", [
    # a workload that is not measured, a metric with no bound, and no slash
    ["--claim", "quadrature/wall_s"],
    ["--claim", "verify/raw.wall_s"],
    ["--claim", "wall_s"],
    # a CLI job is no workload
    ["--claim", "cli eval --n 4 --x 0.5/wall_s"],
])
def test_a_claim_must_name_a_measured_workloads_metric(bench_pairs, monkeypatch, capsys, extra):
    StubRuns(monkeypatch, bench_pairs)
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([*ARGV, *extra])
    assert info.value.code == 2
    assert "--claim names no end-to-end metric of a measured workload" in capsys.readouterr().err


def test_a_workload_needs_its_seed(bench_pairs, monkeypatch, capsys):
    StubRuns(monkeypatch, bench_pairs)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--pairs", "1", "--workload", "verify"])
    assert "--seed0 is required with --workload" in capsys.readouterr().err
    # CLI commands alone take no seed
    assert bench_pairs.main(["--pairs", "1", "--cli", "table"]) == 0


def test_differing_exit_codes_exit_1(bench_pairs, monkeypatch, capsys):
    stub = StubRuns(monkeypatch, bench_pairs)
    stub.exit_codes = {"change": 3}
    assert bench_pairs.main(ARGV) == 1
    assert ("error: cli eval --n 4 --x 0.5: EXIT CODES DIFFER: parent [0], change [3]"
            in capsys.readouterr().err)


def test_a_run_that_is_not_correct_exits_1(bench_pairs, monkeypatch, capsys):
    stub = StubRuns(monkeypatch, bench_pairs)
    stub.correct = False
    assert bench_pairs.main(ARGV) == 1
    assert ("error: verify: parent run in pair 1 was not correct or failed a request"
            in capsys.readouterr().err)


def test_a_run_with_no_result_exits_2(bench_pairs, monkeypatch, capsys):
    stub = StubRuns(monkeypatch, bench_pairs)
    stub.broken = "curves"
    assert bench_pairs.main(ARGV) == 2
    assert "error: parent seed 50: exit 1" in capsys.readouterr().err
    # the run stops at the first failure
    assert stub.log[-1] == ("parent", "curves", 50)


def test_a_failed_spawn_is_a_run_with_no_result(bench_pairs, monkeypatch, tmp_path):
    # it escaped as a CalledProcessError; `main` exits 2 on a RuntimeError
    monkeypatch.setattr(bench_pairs, "_SPAWN", "raise SystemExit(5)")
    with pytest.raises(RuntimeError, match="`table`: exit 5"):
        bench_pairs.run_cli(tmp_path, "table")
