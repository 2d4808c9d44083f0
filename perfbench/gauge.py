"""A fixed computation, timed around each of the program's commands.

On a shared host the CPU's speed drifts by up to 2x, in spells from a second
to over a minute, and a run of under a minute cannot average that away.  The
gauge is the same work every time, so its wall time tracks the host's speed
at the moment.  A command's cost in gauge units (``gu``) is its wall time
divided by the gauge's wall time around it: that ratio keeps what the
program does and drops most of how fast the host happened to be.

The gauge mixes the two kinds of work prosolab does: dictionary and string
handling in pure Python, as in parsing and decoding, and numpy on arrays of
a few thousand samples, as in pitch tracking.  It uses nothing of prosolab,
so no change to the program changes the gauge.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

# Share of each command's wall time spent gauging the host after it.
GAUGE_SHARE = 0.15
# Seconds per gu, roughly one pass on an unloaded 2.1 GHz Xeon core; used
# only to give set-up cost in seconds.
NOMINAL_PASS_S = 0.010

_WORDS = [f"w{i:03d}" for i in range(997)]
_SIGNAL = np.sin(np.arange(4096) * 0.05) + 0.1 * np.cos(np.arange(4096) * 1.3)


def _python_part() -> int:
    counts: dict[str, int] = {}
    for i in range(36000):
        word = _WORDS[(i * 7919) % len(_WORDS)]
        counts[word] = counts.get(word, 0) + (i & 3)
    return sum(len(w) * c for w, c in sorted(counts.items()))


def _numpy_part() -> float:
    total = 0.0
    for k in range(36):
        spec = np.fft.rfft(_SIGNAL * (1.0 + 0.01 * k))
        acf = np.fft.irfft(spec * spec.conj())
        total += float(np.max(acf[20:400]))
    return total


def gauge() -> float:
    """Wall s of one pass of the fixed computation (about 10 ms)."""
    t0 = perf_counter()
    _python_part()
    _numpy_part()
    return perf_counter() - t0


def gauge_cores() -> float:
    """Mean wall s of one pass on each core this process may use.

    Cores of a shared host slow down separately, so work that runs on
    several cores at once is gauged on each in turn.
    """
    cores = os.sched_getaffinity(0)
    try:
        walls = []
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            walls.append(gauge())
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.fmean(walls)


class Gauged:
    """Times commands and their cost in gauge units.

    The gauge runs once just before each command and, after it, for at
    least ``GAUGE_SHARE`` of the command's wall time.  The command's cost is
    its wall time over the mean of the passes before and after.  A command
    in one process is gauged on the core it ran on; one that spreads over
    several cores is gauged on each of them.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.costs: list[float] = []

    def run(self, fn, *args) -> tuple[float, float]:
        """(wall s, cost in gu) of ``fn(*args)`` in this process."""
        return self._run(gauge, fn, *args)

    def run_all_cores(self, fn, *args) -> tuple[float, float]:
        """(wall s, cost in gu) of ``fn(*args)``, which uses every core."""
        return self._run(gauge_cores, fn, *args)

    def _run(self, probe, fn, *args) -> tuple[float, float]:
        before = probe()
        t0 = perf_counter()
        fn(*args)
        wall = perf_counter() - t0
        after, t_end = [], perf_counter() + GAUGE_SHARE * wall
        while not after or perf_counter() < t_end:
            after.append(probe())
        cost = wall / ((before + statistics.fmean(after)) / 2)
        self.passes += [before, *after]
        self.costs.append(cost)
        return wall, cost

    def figures(self) -> dict:
        """The gauge's own figures, for the detail line."""
        return {"gauge_ms": (statistics.median(self.passes) * 1e3, "ms"),
                "gauge_spread": (max(self.passes) / min(self.passes),
                                 "ratio"),
                "gauged_commands": (len(self.costs), "count")}
