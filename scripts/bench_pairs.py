"""Run the perfbench workload, or CLI commands in fresh interpreters, on two
commits in alternating pairs and compare their end-to-end metrics.

    python scripts/bench_pairs.py --workload quadrature --pairs 10 --seed0 9200
    python scripts/bench_pairs.py --workload verify --pairs 12 --seed0 7100 \
        --parent main --change "$(git stash create)" --claim wall_s
    python scripts/bench_pairs.py --pairs 9 --cli table --cli "eval --n 4 --x 0.5"

Each ref is exported with `git archive` into its own temporary directory, so
neither tree carries bytecode, and every run gets PYTHONDONTWRITEBYTECODE=1,
so both sides compile every import alike and `setup_s` compares like with
like.  Pair i runs seed seed0 + i on both trees with
`perfbench/run.py --seconds 30 --trace 0`, the parent first in even pairs
and the change first in odd ones.  A working tree with uncommitted edits can
be compared through `git stash create`, which names it as a commit without
touching any branch.

For each metric the script prints the parent and change medians, the
change/parent ratio, the parent's interquartile range, how many pairs the
change won (lower is better, except `ok_share`) and a verdict:

- for a metric named by `--claim`, whether the gain holds: the change won at
  least nine tenths of the pairs, its median is better than the parent's
  by more than the parent's interquartile range, and its median gain, the
  share of the parent's median, exceeds the metric's relative `bound`; the
  verdict states that gain next to the bound (`gain 44% vs bound 25%`);
- for any other metric, whether the change's median is worse than the
  parent's by more than the metric's relative `bound` in the repository's
  BENCHMARK.json (which the script only reads), or `unresolved` where the
  parent's interquartile range is wider than that bound and not every change
  run beats every parent run.

It then lists every run whose value lies more than 1.5x above or below its
own side's median (a run whose speed calibration went astray moves all its
timings at once).  `--json PATH` also writes every run's metrics and the
verdicts.  The exit code is 1 if any
run reports `correct: false` or a failed request, 2 if a run produces no
result.

`--cli "ARGS"` (repeatable) runs `python -m congeg ARGS` instead, from each
tree's `src/` in a fresh interpreter with PYTHONDONTWRITEBYTECODE=1, every
command once per pair in the same alternating order, its output discarded.
Per command and side it prints the median and interquartile range of the
wall time and of the peak resident set size (`ru_maxrss` of RUSAGE_CHILDREN
in a small interpreter that spawns the command), the pairs the change won,
a verdict (`lower` or `higher` where the medians differ by more than the
parent's interquartile range, else `no change past the parent's IQR`) and
the exit codes.  It flags a command whose exit codes differ between the trees, and
then exits 1.  `--json PATH` writes a `cli` section for a BENCH file.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HIGHER_IS_BETTER = {"ok_share"}
OUTLIER_FACTOR = 1.5
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def export(ref: str, dest: Path) -> str:
    """Extract the committed tree of `ref` into `dest`; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in `tree`; the JSON object on its last stdout line."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "30", "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree.name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


# Runs argv[1:] with its output discarded and prints its wall time, peak
# resident set size and exit code.  Linux carries a process's peak RSS over
# fork and exec, so a child of this script would report at least this
# script's own size; a child of this small interpreter reports its own.
_SPAWN = """
import os, resource, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)])
status = os.waitpid(pid, 0)[1]
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
      os.waitstatus_to_exitcode(status))
"""


def run_cli(tree: Path, args: str) -> dict:
    """One `python -m congeg ARGS` in a fresh interpreter on `tree`'s source:
    its wall time, peak resident set size and exit code."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"),
                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-S", "-c", _SPAWN, sys.executable, "-m", "congeg",
                           *shlex.split(args)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    wall, rss, code = proc.stdout.split()
    return {"metrics": {"wall_s": {"value": float(wall)},
                        "peak_rss_mib": {"value": int(rss) / 1024}},  # ru_maxrss is in KiB,
            "exit_code": int(code)}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def outliers(values: list[float]) -> list[int]:
    """Indices of the values more than OUTLIER_FACTOR times above or below
    the median of `values`."""
    med = statistics.median(values)
    return [i for i, v in enumerate(values)
            if v > OUTLIER_FACTOR * med or med > OUTLIER_FACTOR * v]


def summarize(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per metric: medians, ratio, parent IQR, the pairs the change won and
    each side's outlying runs (indices into its runs)."""
    table = {}
    for name in runs["parent"][0]["metrics"]:
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        higher = name in HIGHER_IS_BETTER
        p_med, c_med = statistics.median(parent), statistics.median(change)
        table[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "change_vs_parent": c_med / p_med if p_med else float("nan"),
            "parent_iqr": iqr(parent),
            "change_better_pairs": sum((c > p) if higher else (c < p)
                                       for p, c in zip(parent, change)),
            "parent_runs": parent,
            "change_runs": change,
            "parent_outliers": outliers(parent),
            "change_outliers": outliers(change),
        }
    return table


def bounds(path: Path = BENCHMARK) -> dict[str, float]:
    """Each end-to-end metric's relative bound, from the benchmark's file."""
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def verdict(name: str, row: dict, bound: float | None, claimed: bool) -> str:
    """The verdict on one metric of `summarize`'s table."""
    parent, change = row["parent_runs"], row["change_runs"]
    higher = name in HIGHER_IS_BETTER
    # how much worse the change's median is, in the metric's units
    worse_by = (row["parent_median"] - row["change_median"] if higher
                else row["change_median"] - row["parent_median"])
    scale = abs(row["parent_median"])
    if claimed:
        won = 10 * row["change_better_pairs"] >= 9 * len(parent)
        gain = -worse_by / scale if scale else 0.0
        holds = won and -worse_by > row["parent_iqr"] and gain > bound
        return (f"{'claim holds' if holds else 'claim not met'}: "
                f"gain {gain:.0%} vs bound {bound:.0%}")
    if bound is None:
        return "no bound"
    if worse_by > bound * scale:
        return f"worse than its bound {bound:g}"
    all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if row["parent_iqr"] > bound * scale and not all_better:
        return f"unresolved: parent IQR wider than its bound {bound:g}"
    return f"within its bound {bound:g}"


def cli_verdict(row: dict) -> str:
    """The verdict on one metric of a `--cli` command (lower is better): a
    change counts only past the parent's interquartile range."""
    gap = row["parent_median"] - row["change_median"]
    if abs(gap) <= row["parent_iqr"]:
        return "no change past the parent's IQR"
    share = abs(gap) / row["parent_median"] if row["parent_median"] else float("nan")
    return f"{'lower' if gap > 0 else 'higher'} by {share:.0%}"


def exit_code_flag(parent: list[int], change: list[int]) -> str | None:
    """A message if any pair's exit codes differ between the trees."""
    if parent == change:
        return None
    return (f"EXIT CODES DIFFER: parent {sorted(set(parent))}, "
            f"change {sorted(set(change))}")


def main_cli(args: argparse.Namespace, trees: dict[str, Path], commits: dict[str, str]) -> int:
    """The `--cli` mode: every command once per pair on each tree."""
    runs = {cmd: {"parent": [], "change": []} for cmd in args.cli}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for cmd in args.cli:
            for side in order:
                runs[cmd][side].append(run_cli(trees[side], cmd))
        print(f"# pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"cli: {args.pairs} alternating pairs; parent {commits['parent'][:12]}, "
          f"change {commits['change'][:12]}")
    print(f"{'command / metric':<40}{'parent':>10}{'IQR':>9}{'change':>10}{'IQR':>9}"
          f"{'better':>8}  verdict")
    section, differ = {}, False
    for cmd, sides in runs.items():
        table = summarize(sides)
        codes = {side: [r["exit_code"] for r in side_runs] for side, side_runs in sides.items()}
        flag = exit_code_flag(codes["parent"], codes["change"])
        differ |= flag is not None
        print(f"{cmd}  (exit codes: parent {sorted(set(codes['parent']))}, "
              f"change {sorted(set(codes['change']))})")
        for name, row in table.items():
            row["change_iqr"] = iqr(row["change_runs"])
            row["verdict"] = cli_verdict(row)
            print(f"  {name:<38}{row['parent_median']:>10.4g}{row['parent_iqr']:>9.3g}"
                  f"{row['change_median']:>10.4g}{row['change_iqr']:>9.3g}"
                  f"{row['change_better_pairs']:>5}/{args.pairs}  {row['verdict']}")
        if flag:
            print(f"  {flag}", file=sys.stderr)
        section[cmd] = {"metrics": table, "exit_codes": codes, "exit_codes_differ": bool(flag)}
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"pairs": args.pairs, "commits": commits, "cli": section}, indent=1) + "\n")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int)
    parser.add_argument("--cli", action="append", default=[], metavar="ARGS",
                        help="time `python -m congeg ARGS` instead of a workload "
                             "(repeatable)")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--json", type=Path, help="also write every run's metrics here")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC",
                        help="a metric the change claims to improve (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.cli and (args.workload or args.seed0 is not None or args.claim):
        parser.error("--cli takes no --workload, --seed0 or --claim")
    if not args.cli and (args.workload is None or args.seed0 is None):
        parser.error("--workload and --seed0 are required without --cli")
    limits = bounds()
    if unknown := set(args.claim) - limits.keys():
        parser.error(f"--claim names no end-to-end metric: {', '.join(sorted(unknown))}")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in runs}
        commits = {side: export(ref, trees[side])
                   for side, ref in (("parent", args.parent), ("change", args.change))}
        if args.cli:
            return main_cli(args, trees, commits)
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    runs[side].append(run_once(trees[side], args.workload, seed))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
            print(f"# pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    table = summarize(runs)
    for name, row in table.items():
        row["verdict"] = verdict(name, row, limits.get(name), name in args.claim)
    print(f"{args.workload}: {args.pairs} alternating pairs, seeds {args.seed0}-"
          f"{args.seed0 + args.pairs - 1}; parent {commits['parent'][:12]}, "
          f"change {commits['change'][:12]}")
    print(f"{'metric':<14}{'parent':>12}{'change':>12}{'ratio':>9}{'parent IQR':>12}"
          f"{'better':>9}  verdict")
    for name, row in table.items():
        print(f"{name:<14}{row['parent_median']:>12.5g}{row['change_median']:>12.5g}"
              f"{row['change_vs_parent']:>9.4f}{row['parent_iqr']:>12.4g}"
              f"{row['change_better_pairs']:>6}/{args.pairs}  {row['verdict']}")
    for name, row in table.items():
        for side in runs:
            median = row[f"{side}_median"]
            for i in row[f"{side}_outliers"]:
                print(f"outlier: {name} {side} run, pair {i + 1} (seed {args.seed0 + i}): "
                      f"{row[f'{side}_runs'][i]:.5g} against its side's median {median:.5g}")
    bad = [(side, args.seed0 + i) for side, side_runs in runs.items()
           for i, r in enumerate(side_runs) if not r["correct"] or r["failed"]]
    for side, seed in bad:
        print(f"error: {side} run at seed {seed} was not correct or failed a request",
              file=sys.stderr)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "pairs": args.pairs, "seed0": args.seed0,
             "commits": commits, "metrics": table,
             "attempted": {side: [r["attempted"] for r in side_runs]
                           for side, side_runs in runs.items()},
             "failed": {side: [r["failed"] for r in side_runs]
                        for side, side_runs in runs.items()},
             "all_runs_correct": not bad}, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
