"""Job times scaled to a reference machine speed.

On a shared host the speed of pure-Python work drifts, by as much as 1.7x
within minutes, with what the other tenants run.  So the benchmark runs a
short fixed pure-Python loop, a *burst*, between jobs and scales each job's
time by ``REFERENCE_S`` over the mean time of the bursts just before and
after it.  A scaled time is the job's time on a machine where one burst
takes ``REFERENCE_S``; it moves when the program changes, not when the
host does.  The burst uses only the standard library, never relpres.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.004     # one burst at the reference speed
CADENCE_S = 0.05        # job time between bursts, at most one job more


def burst() -> float:
    """Seconds one run of the fixed loop takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    seen: dict = {}
    kept = []
    for i in range(20000):
        key = (i % 13, i * 7 % 17)
        seen[key] = seen.get(key, 0) + 1
        if key[0] < key[1]:
            kept.append(key)
    took = perf_counter() - t0
    if enabled:
        gc.enable()
    return took


class Timeline:
    """Bursts interleaved with the jobs of one pass; ``scaled`` ends it."""

    def __init__(self):
        self.bursts: list[float] = []
        self.jobs: list[tuple[int, float]] = []   # (burst before it, seconds)
        self._since = CADENCE_S

    def before_job(self) -> None:
        if self._since >= CADENCE_S:
            self.bursts.append(burst())
            self._since = 0.0

    def add(self, seconds: float) -> None:
        self.jobs.append((len(self.bursts) - 1, seconds))
        self._since += seconds

    def scaled(self) -> list[float]:
        """Each job's time at the reference speed, in the order added."""
        self.bursts.append(burst())
        return [t * 2 * REFERENCE_S / (self.bursts[b] + self.bursts[b + 1])
                for b, t in self.jobs]


def scaled_call(fn, *args):
    """Run ``fn(*args)`` between two bursts; return (scaled seconds, raw
    seconds, its result)."""
    before = burst()
    t0 = perf_counter()
    result = fn(*args)
    took = perf_counter() - t0
    return took * 2 * REFERENCE_S / (before + burst()), took, result
