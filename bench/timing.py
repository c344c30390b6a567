"""Robust timing on a shared host.

Other tenants of the host slow this process down, for stretches from a
fraction of a second to longer than a run, by up to 2x. Two measures
keep the reported timings steady:

- every timing is the 10th percentile of many short samples, because
  contention only ever adds time;
- a fixed calibration task, which no change to ntnsim can touch and
  which takes about as long as a sample, is timed after every sample. Its 10th percentile divided by its time on
  the uncontended reference host is the run's slowdown, and end-to-end
  timings are reported divided by it: as they would read on that host.
  In-process work is calibrated by a pure-Python kernel, process starts
  by a bare interpreter start, because contention slows the two by
  different factors.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# Reference host: 2 vCPU Intel Xeon at 2.1 GHz, Python 3.11, uncontended.
KERNEL_REFERENCE_S = 0.0171
START_REFERENCE_S = 0.062
# Standard-library modules the CLI imports; no ntnsim module.
_BARE_START = (
    "import argparse, bisect, csv, dataclasses, enum, hashlib, io, itertools, "
    "json, random, concurrent.futures, importlib.resources"
)


def low(samples: list[float]) -> float:
    """10th percentile of the samples."""
    return statistics.quantiles(samples, n=10, method="inclusive")[0] if len(samples) > 1 else samples[0]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def _kernel(n: int = 12000) -> int:
    """Object and dict building, float math and float formatting, as in a sweep."""
    cells = []
    for i in range(n):
        x = 1.0 + i * 1e-3
        p = _Point(x, math.sqrt(x))
        row = {"a": p.x, "b": 20.0 * math.log10(p.y), "c": math.sin(x) / p.y}
        cells.append(f"{row['a']:.6g},{row['b']:.6g},{row['c']:.6g}")
    return len("\n".join(cells))


def _bare_start() -> None:
    subprocess.run([sys.executable, "-c", _BARE_START], check=True)


class Calibration:
    """A fixed task timed between workload samples."""

    def __init__(self, task, reference_s: float):
        self.task = task
        self.reference_s = reference_s
        self.samples: list[float] = []

    @classmethod
    def kernel(cls) -> "Calibration":
        return cls(_kernel, KERNEL_REFERENCE_S)

    @classmethod
    def start(cls) -> "Calibration":
        return cls(_bare_start, START_REFERENCE_S)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.task()
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """How many times slower than the reference host this run ran."""
        return low(self.samples) / self.reference_s

    def __str__(self) -> str:
        return f"slowdown {self.slowdown():.3f} over {len(self.samples)} calibration samples"
