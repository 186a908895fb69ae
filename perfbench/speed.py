"""Times at a reference host speed.

On a shared 2-core host the speed of this process drifts by 20-40% within
and between runs (the same request takes 0.74-1.28 s back to back, with CPU
time equal to wall time), which no run length averages away.  So every
reported time is scaled by a fixed piece of reference work timed next to it:

- request times by `_kernel`, timed between requests once per
  CALIBRATE_EVERY_S of request time; each request is scaled by
  REFERENCE_KERNEL_S over the median kernel time within WINDOW_S of
  request time around it;
- set-up times by a fixed stdlib import (pure Python modules and C
  extensions, as congeg.cli's imports mix them), timed in its own fresh
  interpreter spawned just before each one that imports congeg.cli; each
  congeg.cli import time is scaled by REFERENCE_IMPORT_S over its
  reference's.  The interpreter that imports congeg.cli imports nothing
  else first.

The reference work is written here, so it does not change with the program.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

SETUP_SPAWNS = 9
REFERENCE_IMPORT_S = 0.04
_REFERENCE_IMPORT = ("decimal, sqlite3, ctypes, lzma, bz2, xml.etree.ElementTree, csv, "
                     "configparser, difflib, email.message, http.client")
_TIMED_IMPORT = ("import time\n"
                 "t0 = time.perf_counter()\n"
                 "import {}\n"
                 "print(repr(time.perf_counter() - t0))\n")

CALIBRATE_EVERY_S = 0.1
WINDOW_S = 0.5
REFERENCE_KERNEL_S = 0.005
_KERNEL_POLY = [Fraction((-1) ** k * (k + 3), k * k + 1) for k in range(20)]


def _kernel() -> None:
    """Fixed work of the program's kinds, written here so that it does not
    change with the program: an exact polynomial product (rational
    arithmetic on growing integers) and float Horner over a coefficient
    dict."""
    p = _KERNEL_POLY
    product = [Fraction(0)] * (2 * len(p) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(p):
            product[i + j] += a * b
    terms = {k: float(c) for k, c in enumerate(product)}
    for step in range(500):
        u = step / 500.0
        acc = 0.0
        for k in range(len(product) - 1, -1, -1):
            acc = acc * u + terms[k]


class Calibration:
    """Kernel timings, each stamped with the request time spent before it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.positions: list[float] = []
        self._clock = 0.0
        self._owed = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        self.positions.append(self._clock)

    def after(self, spent: float) -> None:
        """Account for request time just spent; sample in proportion."""
        self._clock += spent
        self._owed += spent / CALIBRATE_EVERY_S
        while self._owed >= 1.0:
            self._owed -= 1.0
            self.sample()

    def scaled(self, durations: list[float]) -> list[float]:
        """Durations, in the order they were accounted, at the reference
        speed."""
        positions = np.asarray(self.positions)
        samples = np.asarray(self.samples)
        out, end = [], 0.0
        for d in durations:
            begin, end = end, end + d
            lo = np.searchsorted(positions, begin - WINDOW_S, "left")
            hi = np.searchsorted(positions, end + WINDOW_S, "right")
            out.append(d * REFERENCE_KERNEL_S / float(np.median(samples[lo:hi])))
        return out


def measure_setup_s(checkout: Path, src: Path) -> tuple[list[float], list[float]]:
    """Import times of congeg.cli in fresh interpreters, one at a time,
    raw and at the reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def timed_import(modules: str) -> float:
        proc = subprocess.run([sys.executable, "-c", _TIMED_IMPORT.format(modules)],
                              cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(proc.stdout)

    raw, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        reference = timed_import(_REFERENCE_IMPORT)
        congeg = timed_import("congeg.cli")
        raw.append(congeg)
        scaled.append(congeg * REFERENCE_IMPORT_S / reference)
    return raw, scaled
