"""congeg benchmark: one seeded workload, checked, with end-to-end or
per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Requests are made in-process by one closed-loop client (the next request is
sent when the previous one returns), and each request's output is checked
outside the timed region.

--trace 0 prints the end-to-end metrics: set-up time of a fresh interpreter,
wall time of the request list, median and tail request latency, the share
of requests answered correctly and peak memory.  Times are scaled to a
reference host speed (see speed.py); the raw ones are printed on comment
lines.
--trace 1 runs the same list untraced and then traced, and prints the
per-layer metrics from the traced pass, the tracing overhead, and the raw
(unscaled) set-up, wall, median and tail times of the untraced pass as
raw.* metrics; the spans are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import Calibration, measure_setup_s
from workloads import WARMUP, WORKLOADS, execute, make_requests

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"


@dataclass
class Pass:
    """One pass over the request list: raw and scaled latencies, verdicts."""

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def wall_s(self) -> float:
        return sum(self.scaled)

    @property
    def factor(self) -> float:
        """Mean speed factor, weighted by request time."""
        return self.wall_s / self.raw_wall_s

    @property
    def failed(self) -> int:
        return sum(1 for v in self.verdicts if v.failure)

    def failures(self, kind: str) -> int:
        return sum(1 for v in self.verdicts if v.failure == kind)


def run_pass(reqs: list[dict], checker, tracer=None) -> Pass:
    result = Pass()
    calibration = Calibration()
    calibration.sample()
    for rid, req in enumerate(reqs):
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_request(rid, start)
        out = execute(req)
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_request(end)
        result.latencies.append(end - start)
        result.verdicts.append(checker.check(req, out))
        calibration.after(end - start)
    calibration.sample()
    result.scaled = calibration.scaled(result.latencies)
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    requests beyond it: the 11th-largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def raw_times(run: Pass, setup: list[float]) -> dict:
    """The end-to-end times as measured, before scaling."""
    return {"wall_s": run.raw_wall_s,
            "req_p50_ms": statistics.median(run.latencies) * 1e3,
            "req_tail_ms": tail(run.latencies)[0] * 1e3,
            "setup_s": statistics.median(setup)}


def end_to_end(run: Pass, setup: list[float], setup_scaled: list[float]) -> dict:
    """Times at the reference speed; the raw ones are printed."""
    n = len(run.latencies)
    tail_s, pct = tail(run.scaled)
    raw = raw_times(run, setup)
    print(f"# {n} requests; req_tail_ms is p{pct:.2f} of {n} "
          f"({n - 10}th of {n} in ascending order)")
    print(f"# setup_s spawns (raw): {', '.join(f'{t:.4f}' for t in setup)}")
    print(f"# speed factor {run.factor:.4f}; raw times: {json.dumps(raw)}")
    return {
        "wall_s": _metric(run.wall_s, "s"),
        "req_p50_ms": _metric(statistics.median(run.scaled) * 1e3, "ms"),
        "req_tail_ms": _metric(tail_s * 1e3, "ms"),
        "ok_share": _metric((n - run.failed) / n, "share"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": _metric(statistics.median(setup_scaled), "s"),
    }


def per_layer(tracer, plain: Pass, traced: Pass, setup: list[float]) -> dict:
    """Layer times from the traced pass, at the reference speed; raw
    end-to-end times from the untraced pass."""
    totals = tracer.layer_totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    factor = traced.factor

    def layer(name: str) -> dict:
        return totals.get(name, zero)

    def seconds(name: str, key: str = "s") -> dict:
        return _metric(layer(name)[key] * factor, "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = tracer.counts
    products = layer("quadrature.product")["calls"]
    points = layer("alphapoly.eval")["calls"]
    m = {
        "cli.self_s": seconds("cli.main", "self_s"),
        "verify.asserted_s": seconds("verify.asserted"),
        "verify.audits_s": seconds("verify.audits"),
    }
    for route in ("rodrigues", "recurrence", "series"):
        m[f"gegenbauer.{route}_s"] = seconds(f"gegenbauer.{route}")
        m[f"gegenbauer.{route}_calls"] = _metric(layer(f"gegenbauer.{route}")["calls"], "count")
    m["gegenbauer.constructor_calls"] = _metric(counts["constructor_calls"], "count")
    m["gegenbauer.repeat_share"] = _metric(
        ratio(counts["constructor_repeats"], counts["constructor_calls"]), "share")
    m["alphapoly.poly_mul_s"] = seconds("alphapoly.poly_mul")
    m["alphapoly.poly_mul_calls"] = _metric(layer("alphapoly.poly_mul")["calls"], "count")
    m["alphapoly.eval_s"] = seconds("alphapoly.eval")
    m["alphapoly.eval_points"] = _metric(points, "count")
    m["alphapoly.eval_us_per_point"] = _metric(
        ratio(layer("alphapoly.eval")["s"] * factor * 1e6, points), "us")
    m["alphapoly.eval_max_err"] = _metric(
        min(max((v.max_err for v in traced.verdicts), default=0.0), sys.float_info.max),
        "rel")
    m["quadrature.products"] = _metric(products, "count")
    m["quadrature.product_s"] = seconds("quadrature.product")
    m["quadrature.nodes"] = _metric(counts["nodes"], "count")
    m["quadrature.nodes_per_product"] = _metric(ratio(counts["nodes"], products), "count")
    m["quadrature.accuracy_errors"] = _metric(counts["accuracy_errors"], "count")
    m["quadrature.direct_s"] = seconds("quadrature.direct")
    m["trace.overhead_s"] = _metric(traced.wall_s - plain.wall_s, "s")
    for name, value in raw_times(plain, setup).items():
        m[f"raw.{name}"] = _metric(value, "ms" if name.endswith("_ms") else "s")
    print(f"# raw: untraced wall {plain.raw_wall_s:.4f} s (speed factor "
          f"{plain.factor:.4f}), traced wall {tracer.wall_s():.4f} s "
          f"(speed factor {factor:.4f}), sum of span self times "
          f"{tracer.self_total_s():.4f} s, {len(tracer.name)} spans")
    print(f"# bases: gegenbauer.repeat_share of {counts['constructor_calls']} constructor "
          f"calls; quadrature.nodes_per_product of {products} products; "
          f"alphapoly.eval_us_per_point of {points} points")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "congeg" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'congeg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import congeg
    if not Path(congeg.__file__).resolve().is_relative_to(SRC):
        print(f"error: congeg imported from {congeg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from checks import Checker
    from tracing import Tracer

    reqs = make_requests(args.workload, args.seed, args.seconds)
    checker = Checker()
    for req in WARMUP[args.workload]:
        execute(req)
    setup, setup_scaled = measure_setup_s(CHECKOUT, SRC)
    if args.trace:
        plain = run_pass(reqs, checker)
        tracer = Tracer()
        tracer.install()
        try:
            run = run_pass(reqs, checker, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, plain, run, setup)
        tracer.write(BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.tsv")
    else:
        run = run_pass(reqs, checker)
        metrics = end_to_end(run, setup, setup_scaled)

    kinds = {k: run.failures(k) for k in ("refused", "inaccurate", "wrong")}
    print(f"# failed by kind: {json.dumps(kinds)}")
    for req, verdict in zip(reqs, run.verdicts):
        if verdict.failure == "wrong":
            print(f"# wrong: {json.dumps(req)[:200]}: {verdict.detail[:200]}")
    print(json.dumps({"correct": kinds["wrong"] == 0, "attempted": len(reqs),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
