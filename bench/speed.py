"""Machine-speed probe for normalizing wall times.

On a shared host the speed of the CPU this process runs on drifts by
tens of percent over tens of seconds, even for a fixed pure-Python loop.
Medians over a run cannot remove a drift that lasts as long as the run,
so the benchmark samples the speed while it measures: a timer signal
runs a fixed micro-kernel, independent of reebkit, every ``PERIOD_S``
seconds and records how long it took.  A measured interval is then
rescaled to the speed at which the kernel takes ``REFERENCE_S`` seconds,
using the kernel times sampled during (and just around) that interval:
the mean of their fastest three quarters, which follows a sustained
slowdown but not the rare sample hit by an interrupt.  The time spent in
the kernel itself is subtracted first.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.05
# About the kernel's median time on the 2-CPU Xeon host the benchmark was
# defined on; normalized seconds are seconds at the speed where the
# kernel takes exactly this long.
REFERENCE_S = 0.8e-3
PAD_S = 0.5  # short intervals also use samples this close to them
KEEP = 0.75  # share of the fastest samples averaged


def _kernel(seed: np.ndarray) -> float:
    # mix of interpreter work and small numpy calls, like reebkit itself
    x = 0.0
    for i in range(8000):
        x += i * 0.5
    a = seed
    for _ in range(60):
        a = np.sin(a) + 1.0
    return x + float(a[0])


class SpeedProbe:
    """Context manager sampling the kernel from ``SIGALRM`` while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._seed = np.arange(64.0)
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _kernel(self._seed)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] without probe time, at reference speed."""
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        near = sorted(d for s, d in self.samples if t0 - PAD_S <= s < t1 + PAD_S)
        if not near:
            raise RuntimeError("no speed sample near the measured interval")
        kept = near[: math.ceil(KEEP * len(near))]
        return (t1 - t0 - inside) * REFERENCE_S * len(kept) / sum(kept)
