"""Spans around calls into the program's public functions, recorded from
the benchmark's own files.

`Tracer.install()` wraps each timed function and rebinds the wrapper in
every `congeg.*` namespace that holds the original (the modules import one
another's functions by name), and wraps methods on their class;
`uninstall()` puts the originals back.  Spans are kept in memory in flat
arrays (curves traces hold hundreds of thousands of `evaluate` calls) and
written out by `write()` at the end of the run.

A span records its name, start, end, parent and request id.  The benchmark
opens one root span per request, timed with the same clock readings as the
request's latency, so self times over all spans sum to the traced wall time.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

ROOT = "request"


def _spec_key(route: str):
    def key(args: tuple) -> tuple:
        spec = args[0]
        return (route, spec.n, spec.lam)
    return key


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")   # inside another span of the same name
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._rid = -1
        self._seen: set = set()
        self.counts = {"constructor_calls": 0, "constructor_repeats": 0,
                       "nodes": 0, "accuracy_errors": 0}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._rid)
        self.nested.append(1 if depth else 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def begin_request(self, rid: int, start: float) -> None:
        self._rid = rid
        self._seen = set()
        idx = self._open(ROOT)
        self.start[idx] = start

    def end_request(self, end: float) -> None:
        idx = self._stack[-1]
        self._close(idx)
        self.end[idx] = end

    def wrap(self, name: str, fn, key=None, observe=None):
        """Wrapper that records a span; `key(args)` marks repeats of the same
        work within a request, `observe(result, exc)` updates counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(args)
                tracer.counts["constructor_calls"] += 1
                if k in tracer._seen:
                    tracer.counts["constructor_repeats"] += 1
                tracer._seen.add(k)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                if observe is not None:
                    observe(None, exc)
                raise
            tracer._close(idx)
            if observe is not None:
                observe(result, None)
            return result

        return wrapper

    # -- installation

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "congeg" and not modname.startswith("congeg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _on_product(self, result, exc) -> None:
        best = getattr(exc, "best", None) if exc is not None else result
        if exc is not None and type(exc).__name__ == "AccuracyError":
            self.counts["accuracy_errors"] += 1
        if best is not None:
            self.counts["nodes"] += best.nodes_used

    def _on_direct(self, result, exc) -> None:
        if exc is not None and type(exc).__name__ == "AccuracyError":
            self.counts["accuracy_errors"] += 1

    def install(self) -> None:
        import congeg.alphapoly as alphapoly
        import congeg.cli as cli
        import congeg.gegenbauer as gegenbauer
        import congeg.quadrature as quadrature
        import congeg.verify as verify

        functions = [(cli.main, "cli.main", None, None),
                     (verify.run_recorded_audits, "verify.audits", None, None)]
        functions += [(getattr(verify, name), "verify.asserted", None, None)
                      for name in verify.__all__ if name.startswith("check_")]
        for route, fn in (("rodrigues", gegenbauer.from_rodrigues),
                          ("recurrence", gegenbauer.from_recurrence),
                          ("series", gegenbauer.from_series)):
            functions.append((fn, f"gegenbauer.{route}", _spec_key(route), None))
        functions += [
            (quadrature.conformable_inner_product, "quadrature.product", None,
             self._on_product),
            (quadrature.conformable_inner_product_direct, "quadrature.direct", None,
             self._on_direct),
        ]
        for fn, name, key, observe in functions:
            self._rebind(fn, self.wrap(name, fn, key, observe))

        poly = alphapoly.AlphaPoly
        mul = vars(poly)["__mul__"]
        traced_mul = self.wrap("alphapoly.poly_mul", mul)

        @functools.wraps(mul)
        def poly_mul(p, other):
            # polynomial products only: p * c scales, as c * p does
            return traced_mul(p, other) if isinstance(other, poly) else mul(p, other)

        for method, wrapper in (
                ("__mul__", poly_mul),
                ("__pow__", self.wrap("alphapoly.poly_mul", vars(poly)["__pow__"])),
                ("evaluate", self.wrap("alphapoly.eval", vars(poly)["evaluate"]))):
            self._restore.append((poly, method, vars(poly)[method]))
            setattr(poly, method, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name, "parent": parent, "dur": dur, "self": dur - child,
                "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool)}

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so nested calls are not counted twice) and self seconds."""
        a = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            mine = a["name"] == nid
            out[name] = {"calls": int(mine.sum()),
                         "s": float(a["dur"][mine & ~a["nested"]].sum()),
                         "self_s": float(a["self"][mine].sum())}
        return out

    def wall_s(self) -> float:
        """Traced wall time: the summed durations of the request spans."""
        a = self.arrays()
        return float(a["dur"][a["parent"] < 0].sum())

    def self_total_s(self) -> float:
        return float(self.arrays()["self"].sum())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with path.open("w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.request[i]}\n")
