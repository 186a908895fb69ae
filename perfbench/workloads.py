"""Seeded request lists for the three workloads, and how each request runs.

A request is a plain JSON-able dict, so a list can be compared byte for
byte.  The list depends only on (workload, seed, seconds):

- `seconds` fixes the list length through the seed-state cost of one
  request (REQUEST_COST_S), so at the seed a run measures for about that
  long, and the parent and a change always run the same list;
- the list's shape, which sets its cost, does not depend on the seed:
  degrees, sample, order and point counts are spread evenly over their
  ranges and paired by a fixed stream (`shape`), so seeds differ in what
  is computed, not in how much;
- the seed (`rng`) decides the weights, orders and points, the `--json`
  and `--signed-domain` flags, and the order of the requests.

CLI requests go through `congeg.cli.main` with stdout captured; API
requests call `congeg.quadrature` directly.  Both are looked up at call time
so the tracer's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

WORKLOADS = ("verify", "curves", "quadrature")

# Seed-state mean cost of one request in seconds, measured on a 2-core
# x86-64 host (Python 3.11): it turns --seconds into a request count.
REQUEST_COST_S = {"verify": 0.9, "curves": 0.066, "quadrature": 0.4}

EXACT_SUITES = ("constructors", "ode", "generating-function", "ladder",
                "recurrences", "endpoints", "special-cases")
# a single --suite request reports one asserted suite; a full run reports nine
ASSERTED_PER_FULL_RUN = 9

CURVE_LAMBDAS = ("1/2", "1", "3/2", "2", "5/2", "3")
CURVE_ALPHAS = ("1/4", "1/3", "1/2", "3/5", "7/10", "3/4", "9/10", "1")
QUAD_LAMBDAS = ("1/2", "1", "5/2", "3")
QUAD_ALPHAS = ("1/4", "1/2", "3/4", "1")


def spread(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers spaced evenly over [lo, hi], in seeded order."""
    if k == 1:
        values = [(lo + hi) // 2]
    else:
        values = [lo + round(i * (hi - lo) / (k - 1)) for i in range(k)]
    rng.shuffle(values)
    return values


def deal(rng: random.Random, choices: tuple, k: int) -> list:
    """k items cycling evenly through `choices`, in seeded order."""
    values = [choices[i % len(choices)] for i in range(k)]
    rng.shuffle(values)
    return values


def request_count(workload: str, seconds: float) -> int:
    return max(8, round(seconds / REQUEST_COST_S[workload]))


def _verify_requests(rng: random.Random, shape: random.Random,
                     count: int) -> list[dict]:
    # the seven exact suites and full runs in equal numbers; Rodrigues cost
    # explodes with degree (about 21 s for constructors at --n-max 24), so
    # constructors stop at 16 and full runs at 10, the other suites reach 24
    per_kind = max(1, count // (len(EXACT_SUITES) + 1))
    reqs = []
    for suite in EXACT_SUITES + ("all",):
        top = {"constructors": 16, "all": 10}.get(suite, 24)
        for n_max, as_json in zip(spread(shape, 3, top, per_kind),
                                  deal(rng, (False, False, True), per_kind)):
            reqs.append({"op": "verify", "suite": suite, "n_max": n_max,
                         "json": as_json})
    return reqs


def _curves_requests(rng: random.Random, shape: random.Random,
                     count: int) -> list[dict]:
    n_plot = max(1, round(count / 4))
    n_eval = count - n_plot
    reqs = []
    for n, points, lam, alpha in zip(spread(shape, 1, 64, n_eval),
                                     spread(shape, 1, 8, n_eval),
                                     deal(rng, CURVE_LAMBDAS, n_eval),
                                     deal(rng, CURVE_ALPHAS, n_eval)):
        xs = [f"{rng.uniform(-1.0, 1.0):.6f}" for _ in range(points)]
        reqs.append({"op": "eval", "n": n, "lam": lam, "alpha": alpha, "x": xs})
    for n, samples, orders, signed, lam in zip(spread(shape, 1, 64, n_plot),
                                               spread(shape, 201, 2001, n_plot),
                                               spread(shape, 1, 4, n_plot),
                                               deal(rng, (False, True), n_plot),
                                               deal(rng, CURVE_LAMBDAS, n_plot)):
        reqs.append({"op": "plot-data", "n": n, "lam": lam,
                     "alphas": rng.sample(CURVE_ALPHAS, orders),
                     "samples": samples, "signed": signed})
    return reqs


def _quadrature_requests(rng: random.Random, shape: random.Random,
                         count: int) -> list[dict]:
    n_audit = max(1, round(count * 3 / 10))
    n_direct = max(1, round(count / 10))
    n_orth = max(1, count - n_audit - n_direct)
    reqs = [{"op": "audit", "n_max": n} for n in spread(shape, 0, 32, n_audit)]
    for n_max, lam, alpha in zip(spread(shape, 4, 32, n_orth),
                                 deal(shape, QUAD_LAMBDAS, n_orth),
                                 deal(rng, QUAD_ALPHAS, n_orth)):
        reqs.append({"op": "orthogonality", "n_max": n_max, "lam": lam,
                     "alpha": alpha})
    for lam, alpha in zip(deal(rng, QUAD_LAMBDAS, n_direct),
                          deal(rng, QUAD_ALPHAS, n_direct)):
        reqs.append({"op": "direct", "m": rng.randint(0, 12),
                     "n": rng.randint(0, 12), "lam": lam, "alpha": alpha})
    return reqs


_GENERATORS = {"verify": _verify_requests, "curves": _curves_requests,
               "quadrature": _quadrature_requests}


def make_requests(workload: str, seed: int, seconds: float) -> list[dict]:
    """The workload's seeded request list; same arguments, same list."""
    count = request_count(workload, seconds)
    rng = random.Random(f"{workload}:{seed}")
    shape = random.Random(f"{workload}:shape:{count}")
    reqs = _GENERATORS[workload](rng, shape, count)
    rng.shuffle(reqs)
    return reqs


# small requests run before timing so lazy imports and first-call set-up
# do not land on the first timed request
WARMUP = {
    "verify": [{"op": "verify", "suite": "endpoints", "n_max": 3, "json": False}],
    "curves": [{"op": "eval", "n": 2, "lam": "3", "alpha": "1/2", "x": ["0.5"]},
               {"op": "plot-data", "n": 2, "lam": "3", "alphas": ["1/2"],
                "samples": 201, "signed": False}],
    "quadrature": [{"op": "audit", "n_max": 0},
                   {"op": "orthogonality", "n_max": 2, "lam": "1", "alpha": "1"},
                   {"op": "direct", "m": 0, "n": 1, "lam": "1", "alpha": "1"}],
}


def to_argv(req: dict) -> list[str]:
    op = req["op"]
    if op == "verify":
        argv = ["verify", "--n-max", str(req["n_max"])]
        if req["suite"] != "all":
            argv += ["--suite", req["suite"]]
        return argv + (["--json"] if req["json"] else [])
    if op == "eval":
        return ["eval", "--n", str(req["n"]), "--lambda", req["lam"],
                "--alpha", req["alpha"], "--x", *req["x"]]
    if op == "plot-data":
        argv = ["plot-data", "--n", str(req["n"]), "--lambda", req["lam"],
                "--samples", str(req["samples"])]
        for alpha in req["alphas"]:
            argv += ["--alpha", alpha]
        return argv + (["--signed-domain"] if req["signed"] else [])
    if op == "audit":
        return ["audit", "--n-max", str(req["n_max"])]
    raise ValueError(f"{op!r} is not a CLI request")


@dataclass
class Outcome:
    """What one request produced: exit code and output for CLI requests,
    the returned value for API requests, or the exception that escaped."""

    rc: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    value: Any = None
    error: Optional[BaseException] = None


def execute(req: dict) -> Outcome:
    import congeg.cli
    import congeg.quadrature

    out = Outcome()
    op = req["op"]
    try:
        if op == "orthogonality":
            out.value = congeg.quadrature.orthogonality_check(
                n_max=req["n_max"], lambdas=(Fraction(req["lam"]),),
                alphas=(Fraction(req["alpha"]),))
        elif op == "direct":
            out.value = congeg.quadrature.conformable_inner_product_direct(
                req["m"], req["n"], Fraction(req["lam"]), Fraction(req["alpha"]))
        else:
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    out.rc = congeg.cli.main(to_argv(req))
            except SystemExit as exc:  # argparse refusals
                out.rc = exc.code if isinstance(exc.code, int) else 2
            out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    except Exception as exc:  # the checker classifies every escape
        out.error = exc
    return out
