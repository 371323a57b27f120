"""Host fingerprint, calibration score, scaled time and peak memory.

Every result record names the host it ran on and carries the score of a
fixed pure-Python loop, so numbers from two hosts are never compared
blindly: a ratio of two calibration scores says how much faster one
interpreter core is than the other.

The same loop, run briefly, is a speed probe.  A shared host's core speed
drifts by up to 2x over minutes, and a benchmark run cannot outlast the
drift.  Work done on the benchmark's own thread slows along with the
probe measured beside it on that thread, though less, so
:class:`ScaledTimer` re-expresses its wall time at a fixed probe speed,
:data:`REFERENCE_MOPS`.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from typing import Dict, Iterable

#: Iterations of the calibration loop, and how many times it runs (the
#: score is the best time).
CALIBRATION_ITERATIONS = 200_000
CALIBRATION_REPEATS = 5
#: The same for one speed probe: a few milliseconds.
PROBE_ITERATIONS = 10_000
PROBE_REPEATS = 3
#: Probe speed, in millions of iterations per second, that scaled times
#: refer to: a scaled second is the time the work would take on a core
#: where the probe runs this fast.
REFERENCE_MOPS = 4.0
#: Wall time scales with the probe speed to this power.  The engines'
#: work slows less than the cache-resident probe loop when the host is
#: in its slow state; over two ten-seed sets of both serial workloads,
#: 0.7 gave the smallest spreads and set-to-set differences (1.0 over-
#: corrected: slow-state runs read up to 10% fast).
SCALING_EXPONENT = 0.7


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _loop_seconds(iterations: int) -> float:
    """Time of a fixed mix of integer arithmetic, list and dict
    operations."""
    table: Dict[int, int] = {}
    items = []
    begin = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
        items.append(acc & 7)
        if len(items) > 64:
            items.clear()
    return time.perf_counter() - begin


def calibration_score() -> float:
    """Millions of loop iterations per second; best of
    :data:`CALIBRATION_REPEATS`."""
    best = min(_loop_seconds(CALIBRATION_ITERATIONS)
               for _ in range(CALIBRATION_REPEATS))
    return CALIBRATION_ITERATIONS / best / 1e6


def probe_mops() -> float:
    """The core's speed now, in the calibration loop's units; best of
    :data:`PROBE_REPEATS` short loops."""
    best = min(_loop_seconds(PROBE_ITERATIONS)
               for _ in range(PROBE_REPEATS))
    return PROBE_ITERATIONS / best / 1e6


class ScaledTimer:
    """Scales wall times of successive pieces of work to
    :data:`REFERENCE_MOPS`, probing the speed before the first piece and
    after each one; a piece's speed is the mean of the probes either side.
    Call it outside the timed code, never inside it."""

    def __init__(self) -> None:
        self.speeds = [probe_mops()]

    def scale(self, elapsed: float) -> float:
        self.speeds.append(probe_mops())
        speed = (self.speeds[-2] + self.speeds[-1]) / 2
        return elapsed * (speed / REFERENCE_MOPS) ** SCALING_EXPONENT


def fingerprint() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "calibration_mops": calibration_score(),
    }


def peak_rss_kb(pids: Iterable[int] = ()) -> int:
    """Peak resident set of this process plus the live processes ``pids``
    (their ``VmHWM``), in KiB."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            pass
    return total
