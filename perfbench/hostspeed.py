"""Host-speed calibration for the wall-clock metrics.

On a shared host the interpreter's speed drifts by 20-30% over seconds to
minutes (other tenants' load), far more than the bounds the benchmark
gates on.  A fixed calibration loop runs between the parts of every timed
phase, and wall-clock figures are scaled by ``median calibration time /
REFERENCE_S``: they read as if the host ran the loop in exactly
``REFERENCE_S``.  The loop is benchmark code only, so a change to the
program cannot move it.

The loop chases pointers through half a million objects linked in random
order, because the store's own work -- index, cache and record objects
scattered over a large heap -- is what contention slows.  Against a fixed
batch of store gets and scans, over 100 s of paired samples on a 2-vCPU
Xeon guest, its 2-second blocks correlated 0.71-0.78 with the store's and
slowed in proportion (log-log slope 1.03); a loop of dictionary lookups
correlated 0.66-0.75 with a slope of 1.2-1.5.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Calibration time of this host class (Intel Xeon vCPU, Python 3.11);
#: only the unit of the scaled figures depends on it.
REFERENCE_S = 0.009
NODES = 500_000
STEPS = 40_000


class _Node:
    __slots__ = ("next", "value")


class HostSpeed:
    def __init__(self) -> None:
        order = np.random.default_rng(0).permutation(NODES).tolist()
        nodes = [_Node() for _ in range(NODES)]
        for i, j in zip(order, order[1:] + order[:1]):
            nodes[i].next = nodes[j]
            nodes[i].value = i
        self._head = nodes[0]
        del nodes
        # Move the nodes (and everything imported so far) out of
        # the collector's reach, so they do not slow the program's GC.
        gc.collect()
        gc.freeze()

    def measure(self) -> float:
        """Seconds the calibration loop takes right now."""
        node = self._head
        total = 0
        t0 = time.perf_counter()
        for _ in range(STEPS):
            total += node.value
            node = node.next
        return time.perf_counter() - t0


def speed_factor(calibration_s: float) -> float:
    """How much slower than the reference the host ran: divide measured
    times by it, multiply measured rates by it."""
    return calibration_s / REFERENCE_S
