"""Sampling of the host's speed while operations run.

The host this benchmark was built on changes speed by tens of percent over
seconds (see README.md), which would swamp a throughput measured in
seconds alone.  While the operations run, a timer signal interrupts them
every PERIOD_S seconds and times one fixed slice of pure-Python work.  The
slices' mean time over the reference time REFERENCE_TICK_S is the host's
slowdown during the run, and the throughput metric is scaled by it.  The
slice never changes, so the scaling follows the host and not the program;
its time is subtracted from the operations it interrupted.
"""

from __future__ import annotations

import signal
import time

clock = time.perf_counter

PERIOD_S = 0.02
# One slice's time at the reference host speed: about the median measured
# on the machine that README.md reports figures for.
REFERENCE_TICK_S = 380e-6

_TABLE = bytes((i * 167 + 13) % 256 for i in range(256))
_DATA = bytes((i * 73 + 5) % 256 for i in range(512))
_REPEATS = (None,) * 16


class HostSpeed:
    def __init__(self) -> None:
        self.ticks = 0
        self.busy_s = 0.0
        self._in_tick = False
        for _ in range(100):  # warm up
            self._tick(0, None)
        self.ticks = 0
        self.busy_s = 0.0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        # The slice allocates nothing and reads 768 bytes, so what the
        # program leaves in the allocator and the caches hardly moves its
        # time; a larger working set would time the program's evictions.
        # The work stays inline: the handler may run at the
        # program's deepest recursion and must add no more than its frame.
        if self._in_tick:
            return
        self._in_tick = True
        t = clock()
        table, data = _TABLE, _DATA
        x = 0
        for _ in _REPEATS:
            for b in data:
                x = table[x ^ b]
        self.busy_s += clock() - t
        self.ticks += 1
        self._in_tick = False

    def mark(self) -> tuple[float, float]:
        return clock(), self.busy_s

    def since(self, mark: tuple[float, float]) -> float:
        """Seconds since mark, less the slices run meanwhile."""
        return clock() - mark[0] - (self.busy_s - mark[1])

    @property
    def slowdown(self) -> float:
        """Mean slice time over the reference time (1.0 at reference speed)."""
        return self.busy_s / self.ticks / REFERENCE_TICK_S if self.ticks else 1.0
