"""A fixed piece of interpreter work that measures how fast the host runs
right now, independent of the package.

The benchmark's host is a few vCPUs of a shared machine whose speed swings
by up to 2x for tens of seconds at a time: the same pass takes 1.2 s in
one minute and 2.2 s in the next, all of it user time, with no steal and
no page faults.  Memory-bound code slows the most, so the swings look like
neighbours contending for the shared cache.  A run that only reads the
wall clock measures those swings more than the program.

So the benchmark runs ``measure()`` between instances, close in time to
the work, and reports pass and set-up times in reference seconds: wall
seconds times ``REFERENCE_S / probe seconds``, the time the work would
have taken while a probe took ``REFERENCE_S``.  A change to the package
moves the work and not the probe, so it shows in full.

Each round of the probe has two parts, because the package's instances
are partly each: lookups, in random order, of the tuple keys of a dict
of ``TABLE_SIZE`` entries, about 35 MB, far more than a core's share of
the cache, so that they run at the speed of the memory the host leaves
them (like the package's graphs and clause lists); and a short loop of
integer arithmetic, which runs at the speed of the interpreter alone.
After one collection neither the table nor its keys are tracked by the
cyclic garbage collector, so keeping the probe alive does not slow the
package's own collections.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# about the median probe seconds on a quiet 2-vCPU KVM guest (Intel Xeon
# model 143, 2.0 GHz, CPython 3.11); it sets only the scale of the results
REFERENCE_S = 0.025
TABLE_SIZE = 200_000
LOOKUPS = 20_000
ARITHMETIC = 50_000
ROUNDS = 3


class Probe:
    def __init__(self):
        keys = [(i, i * 7 % 13) for i in range(TABLE_SIZE)]
        self.table = {k: i for i, k in enumerate(keys)}
        random.Random(1802).shuffle(keys)
        self.order = tuple(keys)
        gc.collect()
        assert not gc.is_tracked(self.table) and not gc.is_tracked(self.order)

    def _round(self, start: int) -> int:
        table, acc = self.table, 0
        for key in self.order[start:start + LOOKUPS]:
            acc += table[key]
        for i in range(ARITHMETIC):
            acc += i * i % 7
        return acc

    def measure(self) -> float:
        """Seconds for one probe: the median of ``ROUNDS`` timed rounds,
        each over other keys."""
        times = []
        for r in range(ROUNDS):
            start = time.perf_counter()
            self._round(r * LOOKUPS)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def to_reference(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s
