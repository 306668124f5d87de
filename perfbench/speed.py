"""Times scaled to a reference machine speed.

The machine this benchmark was sized on (2 shared CPUs) changes speed by up
to 2x within seconds, as other tenants come and go, and raw wall times swing
with it.  So every time the benchmark reports is scaled to a reference speed.
While a pass runs, a SIGALRM handler (a signal, not a thread) times a short
fixed loop that runs no eprsat code every TICK_S seconds.  The pass's times
exclude the handler's time, and are multiplied by the mean over the ticks of
TICK_NOMINAL_S / (the loop's time): the share of the reference speed the
machine ran at, averaged over the pass.  A program that gets faster or slower
moves the scaled times in proportion, while the machine's swings mostly
cancel out.  Raw times go to the report line beside the scaled ones.
"""
from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.2
TICK_ROUNDS = 1500
TICK_NOMINAL_S = 0.005


def reference_loop(rounds: int = TICK_ROUNDS) -> float:
    """Seconds taken by a fixed loop of tuple, dict and call work."""
    def unify(a, b):
        s = {}
        for x, y in zip(a, b):
            x, y = s.get(x, x), s.get(y, y)
            if x == y:
                continue
            if x < 0:
                s[x] = y
            elif y < 0:
                s[y] = x
            else:
                return None
        return s

    t0 = time.perf_counter()
    acc = 0
    for i in range(rounds):
        a, b = (-1, -2, i % 7, -3), (i % 5, -4, -4, -1)
        s = unify(a, b)
        if s is not None:
            acc += len(tuple(s.get(t, t) for t in a)) + len(set(s))
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples the machine's speed while armed (`with meter:`).

    `clock()` is perf_counter minus the time spent in the handler, so what
    it times excludes the sampling.
    """

    def __init__(self):
        self.paused = 0.0
        self.ticks: list[float] = []
        self._old = None

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.ticks.append(reference_loop())
        self.paused += time.perf_counter() - t0

    def take(self) -> float:
        """The mean relative speed since the last `take`; clears the ticks."""
        speed = statistics.fmean(TICK_NOMINAL_S / t for t in self.ticks)
        self.ticks.clear()
        return speed

    def __enter__(self) -> "SpeedMeter":
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
