"""A fixed reference workload that gauges how fast the host runs Python now.

On a shared host the same code runs up to half again slower for seconds to
minutes at a time, because other tenants take the processor's shared
resources; the process's CPU time rises with its wall time, so neither
clock removes this.  While a repetition runs, :class:`Sampler` interrupts
it every ``interval`` seconds and times one reference unit in its place;
``run.py`` divides the program's time by the mean unit time.  Program and
reference are sampled at the same moments and slow down together, so the
quotient follows the program and not the host.

The reference imports nothing from ``domroots`` (a change to the program
must not move it) and mixes the kinds of work the program does: small-int
bit manipulation, list and dict traffic, and exact big-rational
arithmetic.  One unit takes about 4 ms on a 2-core Xeon guest.
"""

import signal
import time
from fractions import Fraction


def unit() -> int:
    adj = [0] * 8
    seen = {}
    for mask in range(1, 1 << 9):
        flipped = mask ^ (mask - 1)
        idx = 0
        while flipped:
            if flipped & 1:
                adj[idx & 7] ^= 1 << (idx % 5)
            flipped >>= 1
            idx += 1
        lst = []
        m = adj[mask & 7] | mask
        while m:
            low = m & -m
            lst.append(low.bit_length() - 1)
            m ^= low
        key = tuple(lst)
        seen[key] = seen.get(key, 0) + 1
    x = Fraction(1, 3)
    for k in range(1, 40):
        x = (x * x + Fraction(k, 7)) / (x + 1)
        x = x.limit_denominator(1 << 200)
    return len(seen) + x.numerator.bit_length()


def unit_seconds(count: int) -> float:
    """The median wall time of one unit over ``count`` units."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return sorted(times)[count // 2]


class Sampler:
    """Times one reference unit every ``interval`` wall seconds, on SIGALRM.

    The handler runs in the main thread between two bytecodes of whatever
    is running, so the program is paused while a unit runs; ``seconds``
    is the time the units took, to be taken out of the program's timings.
    The timer is re-armed only when a unit ends, so units never overlap.
    An interval of 0 samples nothing.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.units = 0
        self.seconds = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        unit()
        self.seconds += time.perf_counter() - t0
        self.units += 1
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        if not self.interval:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)  # one unit at once, so even a short run has one
        return self

    def __exit__(self, *exc):
        if not self.interval:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
