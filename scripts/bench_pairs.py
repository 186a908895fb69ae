"""Run perfbench workloads and CLI commands on two commits in alternating
pairs and compare their end-to-end metrics.

    python scripts/bench_pairs.py --pairs 12 --workload verify --seed0 7100 \
        --parent main --change "$(git stash create)" --claim verify/wall_s
    python scripts/bench_pairs.py --pairs 20 --workload verify --workload curves \
        --seed0 5800 --cli verify --cli "eval --n 4 --x 0.5" --json BENCH.json

Each ref is exported with `git archive` into its own temporary directory
(`git stash create` names a dirty working tree as a commit), and every run
gets PYTHONDONTWRITEBYTECODE=1, so both sides compile every import alike.
A run is a list of jobs: each `--workload NAME` runs `perfbench/run.py
--workload NAME --seed SEED0+i --seconds 30 --trace 0` in pair i, and each
`--cli "ARGS"`, the job `cli ARGS`, times `python -m congeg ARGS` from the
tree's `src/` in a fresh interpreter, its output discarded.  Pair i runs
every job on both trees, the parent first in even pairs, the change first
in odd ones.

Per job and metric the script prints each side's median and interquartile
range, the change/parent ratio, the pairs the change won (lower is better,
except `ok_share`) and `verdict`'s judgement: a metric named by
`--claim WORKLOAD/METRIC` must win nine tenths of the pairs and gain more
than the parent's IQR and its relative `bound` in BENCHMARK.json (which the
script only reads); another workload metric must stay within its bound, or
reads `unresolved` where the parent's IQR is wider; a metric with no bound,
as every CLI metric is, moves `lower` or `higher` only past the parent's
IQR.  Then it lists every run more than 1.5x above or below its side's
median (a run whose speed calibration went astray moves all its timings).
`--json PATH` writes every run's metrics, the verdicts and each tree's line
count of `src/congeg/*.py`.  The exit code is 1 if a workload run reports
`correct: false` or a failed request, or a command's exit codes differ
between the trees; 2 if a run gives no result.
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
                          cwd=tree, env=env, capture_output=True, text=True)
    fields = proc.stdout.split()
    if proc.returncode or len(fields) != 3:
        raise RuntimeError(f"{tree.name} `{args}`: exit {proc.returncode}\n{proc.stderr}")
    wall, rss, code = fields
    return {"metrics": {"wall_s": {"value": float(wall)},
                        "peak_rss_mib": {"value": int(rss) / 1024}},  # ru_maxrss is in KiB,
            "exit_code": int(code)}


def source_lines(tree: Path) -> int:
    """The line count of `src/congeg/*.py` in `tree`."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "congeg").glob("*.py"))


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
    if bound is None:  # a change counts only past the parent's interquartile range
        gap = row["change_median"] - row["parent_median"]
        if abs(gap) <= row["parent_iqr"]:
            return "no change past the parent's IQR"
        share = abs(gap) / scale if scale else float("nan")
        return f"{'higher' if gap > 0 else 'lower'} by {share:.0%}"
    if worse_by > bound * scale:
        return f"worse than its bound {bound:g}"
    all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if row["parent_iqr"] > bound * scale and not all_better:
        return f"unresolved: parent IQR wider than its bound {bound:g}"
    return f"within its bound {bound:g}"


def exit_code_flag(parent: list[int], change: list[int]) -> str | None:
    """A message if any pair's exit codes differ between the trees."""
    if parent == change:
        return None
    return (f"EXIT CODES DIFFER: parent {sorted(set(parent))}, "
            f"change {sorted(set(change))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[], metavar="NAME",
                        help="a perfbench workload (repeatable)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, help="pair i runs the workloads at seed SEED0 + i")
    parser.add_argument("--cli", action="append", default=[], metavar="ARGS",
                        help="time `python -m congeg ARGS` (repeatable)")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--json", type=Path, help="also write every run's metrics here")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD/METRIC",
                        help="a workload's metric the change claims to improve (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.workload and args.seed0 is None:
        parser.error("--seed0 is required with --workload")
    limits = bounds()
    if unknown := sorted(set(args.claim) - {f"{w}/{m}" for w in args.workload for m in limits}):
        parser.error("--claim names no end-to-end metric of a measured workload: "
                     + ", ".join(unknown))

    # each job runs on a tree in pair i
    jobs = {name: lambda tree, i, name=name: run_once(tree, name, args.seed0 + i)
            for name in args.workload}
    jobs.update({f"cli {cmd}": lambda tree, i, cmd=cmd: run_cli(tree, cmd) for cmd in args.cli})
    runs = {job: {"parent": [], "change": []} for job in jobs}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(ref, trees[side])
                   for side, ref in (("parent", args.parent), ("change", args.change))}
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for job, run in jobs.items():
                for side in order:
                    try:
                        runs[job][side].append(run(trees[side], i))
                    except RuntimeError as exc:
                        print(f"error: {exc}", file=sys.stderr)
                        return 2
            print(f"# pair {i + 1}/{args.pairs} done", file=sys.stderr)

    seeds = f", seeds {args.seed0}-{args.seed0 + args.pairs - 1}" if args.workload else ""
    print(f"{args.pairs} alternating pairs{seeds}; parent {commits['parent'][:12]} "
          f"({lines['parent']} lines of src/congeg), change {commits['change'][:12]} "
          f"({lines['change']} lines)")
    print(f"{'job / metric':<36}{'parent':>11}{'IQR':>9}{'change':>11}{'IQR':>9}"
          f"{'ratio':>8}{'better':>8}  verdict")
    entries, errors, outlying = {}, [], []
    for job, sides in runs.items():
        # each side's values of every key a run reports beside its metrics
        entry = {key: {side: [r[key] for r in side_runs] for side, side_runs in sides.items()}
                 for key in sides["parent"][0] if key != "metrics"}
        entry["metrics"] = summarize(sides)
        if job in args.workload:
            errors += [f"{job}: {side} run in pair {i + 1} was not correct or failed a request"
                       for side, side_runs in sides.items()
                       for i, r in enumerate(side_runs) if not r["correct"] or r["failed"]]
            print(job)
        else:
            codes = entry["exit_codes"] = entry.pop("exit_code")
            flag = exit_code_flag(codes["parent"], codes["change"])
            entry["exit_codes_differ"] = flag is not None
            if flag:
                errors.append(f"{job}: {flag}")
            print(f"{job}  (exit codes: parent {sorted(set(codes['parent']))}, "
                  f"change {sorted(set(codes['change']))})")
        for name, row in entry["metrics"].items():
            row["change_iqr"] = iqr(row["change_runs"])
            bound = limits.get(name) if job in args.workload else None
            row["verdict"] = verdict(name, row, bound, f"{job}/{name}" in args.claim)
            print(f"  {name:<34}{row['parent_median']:>11.5g}{row['parent_iqr']:>9.3g}"
                  f"{row['change_median']:>11.5g}{row['change_iqr']:>9.3g}"
                  f"{row['change_vs_parent']:>8.4f}{row['change_better_pairs']:>5}/"
                  f"{args.pairs:<2}  {row['verdict']}")
            outlying += [f"outlier: {job} {name} {side} run, pair {i + 1}: "
                         f"{row[f'{side}_runs'][i]:.5g} against its side's median "
                         f"{row[f'{side}_median']:.5g}"
                         for side in sides for i in row[f"{side}_outliers"]]
        entries[job] = entry
    for line in outlying:
        print(line)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"schema": 1, "argv": sys.argv[1:] if argv is None else list(argv),
             "pairs": args.pairs, "seed0": args.seed0, "commits": commits,
             "src_congeg_lines": lines, "jobs": entries}, indent=1) + "\n")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
