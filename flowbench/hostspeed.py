"""How fast the host runs, sampled while the timed work runs.

The benchmark shares a few vCPUs of a machine with other work.  The
speed a vCPU gets switches between levels every few seconds (a fixed
kernel timed back to back reads 0.36 s for six seconds, then 0.28 s,
then 0.31 s) and drifts over minutes: the same flow on the same
instance took 4.1 s in one run and 8.0 s twenty minutes later, with
CPU time tracking wall time.  A flow's wall time moves with it, and the
two vCPUs do not move together, so the speed has to be sampled on the
flow's own vCPU, while it runs.

A tick times a fixed, small amount of work.  ``tick`` is shaped like the
placer's hot loop (exponentials, segment sums and scatter-adds over pin,
cell and bin arrays, plus interpreted arithmetic); ``interpreted_tick``
is the interpreted part alone, for timing ``import repro`` without
importing NumPy first.  Neither uses code of the program, so a change
to the program cannot change their time.  While a ``Sampler`` is
installed, a timer signal runs one tick every ``INTERVAL_S`` of wall
time in the timed thread.  The work's time at reference speed is its
wall time minus the ticks, times the mean of ``reference / tick``.

Run as a script it prints the host's speed now (1.0 = reference)::

    python3 flowbench/hostspeed.py
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.04
# Median ticks on a 2-vCPU virtual machine (Python 3.11.7, NumPy 2.4.6,
# scipy-openblas 0.3.31).  Only the ratio of a tick to these enters a metric.
REFERENCE_S = 0.0013
INTERPRETED_REFERENCE_S = 0.0008


@functools.cache
def _arrays(pins: int = 8192, cells: int = 2048, bins: int = 4096) -> dict:
    import numpy as np

    rng = np.random.default_rng(1)
    net = np.sort(rng.integers(0, pins // 4, pins))
    return {
        "x": rng.random(pins) * 100.0,
        "starts": np.flatnonzero(np.r_[True, net[1:] != net[:-1]]),
        "cell": rng.integers(0, cells, pins),
        "cx": rng.random(cells) * 100.0,
        "bins": bins,
    }


def _pass(a: dict) -> float:
    import numpy as np

    e = np.exp((a["x"] - a["x"].max()) * 0.1)
    per_net = np.add.reduceat(e, a["starts"])
    per_cell = np.bincount(a["cell"], weights=e, minlength=a["cx"].size)
    where = (a["cx"] * (a["bins"] / 100.0)).astype(np.int64) % a["bins"]
    per_bin = np.bincount(where, weights=per_cell, minlength=a["bins"])
    return float(np.sort(per_bin)[-1] + per_net.sum())


def _interpreted(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def tick() -> float:
    """Seconds one pass of the flow-shaped kernel takes now."""
    arrays = _arrays()
    t0 = time.perf_counter()
    for _ in range(8):
        _pass(arrays)
    _interpreted(3000)
    return time.perf_counter() - t0


def interpreted_tick() -> float:
    """Seconds one pass of the interpreted kernel takes now."""
    t0 = time.perf_counter()
    _interpreted(10000)
    return time.perf_counter() - t0


class Sampler:
    """Runs ``kernel`` every ``INTERVAL_S`` of wall time while installed."""

    def __init__(self, kernel=tick, reference_s: float = REFERENCE_S) -> None:
        self.kernel, self.reference_s = kernel, reference_s
        self.ticks: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.ticks.append(self.kernel())

    @contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def busy_s(self) -> float:
        """Wall time the ticks took away from the timed work."""
        return sum(self.ticks)

    @property
    def speed(self) -> float:
        """Mean host speed over the ticks, relative to the reference."""
        ticks = self.ticks or [self.kernel()]  # work shorter than one interval
        return statistics.fmean(self.reference_s / t for t in ticks)

    def at_reference(self, seconds: float) -> float:
        """``seconds`` of wall time that held the ticks, at reference speed."""
        return (seconds - self.busy_s) * self.speed


if __name__ == "__main__":
    print(statistics.fmean(REFERENCE_S / tick() for _ in range(100)))
