"""Paths, the child-process environment, the speed probe and the statistics
shared by the benchmark's processes. Imports nothing from qspectra."""

from __future__ import annotations

import math
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("verify-small", "analyze-mid", "cli-cold")

# Held constant in every benchmark process, parent and child commits alike:
# one BLAS thread, qspectra from this checkout's src/ only, no bytecode
# written (every cold start compiles qspectra from source), a fixed hash seed,
# and no QSPECTRA_* overrides (default tolerance, automatic backend choice).
PINNED_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSPECTRA_")}
    env.update(PINNED_ENV)
    return env


def check_import_location(module_file: str) -> None:
    """Refuse to measure a qspectra that is not this checkout's src/."""
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"qspectra imported from {module_file}, not from {SRC}")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float, weights=None) -> float:
    """Nearest-rank percentile; with weights, each value counts weight times."""
    if weights is None:
        weights = [1] * len(values)
    pairs = sorted(zip(values, weights))
    rank = math.ceil(q / 100 * sum(weights))
    seen = 0
    for value, w in pairs:
        seen += w
        if seen >= max(rank, 1):
            return float(value)
    return float(pairs[-1][0])


def tail_percentile(count: int) -> int | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if count * (100 - q) / 100 >= 10:
            return q
    return None


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts, to one CPU, so a CLI
    request runs on the CPU whose speed the probe samples."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


_REFERENCE_ROWS = np.arange(64.0).reshape(8, 8)


def _reference_loop() -> list:
    """Fixed work shaped like the library's: tuple and dict churn, and small
    numpy row updates like the Jacobi kernel's."""
    counts: dict = {}
    for i in range(200):
        key = (i % 17, i * 7 % 13)
        counts[key] = counts.get(key, 0) + len(key)
    rows = _REFERENCE_ROWS.copy()
    for i in range(12):
        rows[i % 8, :] = rows[i % 8, :] * 0.5 + rows[(i + 1) % 8, :]
    return sorted(counts.items())


class SpeedProbe:
    """Samples the CPU's current speed while units run.

    The machine is shared: its other tenants slow this CPU by up to about
    1.5x, in bursts lasting from milliseconds to minutes, so raw wall times
    of the same work spread by 20-35% between runs. Every PERIOD_S a SIGALRM
    handler runs a fixed reference loop twice and times the second, warm
    pass. A unit's time, less the handler's own time, is scaled by
    REFERENCE_LOOP_MS over the warm pass's mean time during the unit: it
    reads as milliseconds on an uncontended CPU of the reference machine
    (Intel Xeon, 2 vCPUs, where the warm pass takes REFERENCE_LOOP_MS). The
    loop does no qspectra work, so a faster library still reads faster.
    """

    PERIOD_S = 0.005
    REFERENCE_LOOP_MS = 0.135
    WINDOW = 4      # samples before a unit that also count, for short units

    def __init__(self):
        self.samples: list[float] = []
        self.handler_ms = 0.0

    def _sample(self, signum, frame) -> None:
        # the first pass refills the caches the measured code evicted, so the
        # timed second pass sees the CPU's speed, not the program's footprint
        t0 = time.perf_counter()
        _reference_loop()
        t1 = time.perf_counter()
        _reference_loop()
        t2 = time.perf_counter()
        self.handler_ms += 1e3 * (t2 - t0)
        self.samples.append(1e3 * (t2 - t1))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        """(fn's result, scaled ms, raw wall ms)."""
        first, handler_ms = len(self.samples), self.handler_ms
        t0 = time.perf_counter()
        value = fn(*args)
        raw_ms = 1e3 * (time.perf_counter() - t0)
        window = self.samples[max(0, first - self.WINDOW):] or [self.REFERENCE_LOOP_MS]
        work_ms = raw_ms - (self.handler_ms - handler_ms)
        return value, work_ms * self.REFERENCE_LOOP_MS / statistics.mean(window), raw_ms
