"""Machine-speed probe: how fast this machine runs Python right now.

The benchmark's machine is a share of a host that other tenants use, and
their load slows every piece of Python code here by the same factor for
seconds to minutes at a time; one run can be twice as slow as the next
with the library unchanged. Every timed phase is therefore bracketed by
probes, and a pass's seconds are divided by its *slowdown*: the probe's
mean time over the pass divided by :data:`REFERENCE_S`, its time on an
idle machine. The end-to-end times the benchmark reports are so expressed
in seconds of an idle machine, and a change in the library moves them
while a change in the host's load does not.

The probe reads two clocks. Single-process phases are timed by the
process's CPU clock, which on a paravirtualised guest (KVM steal-time
accounting) leaves out the time the host ran another tenant on this CPU:
on an idle machine it equals the wall time of a single-threaded call, and
pauses longer than a call do not blur it. What is left, a CPU that runs
slower while it runs, the probe's CPU time measures. Phases that fan out
to worker processes are timed by the wall clock and divided by the
probe's wall-clock slowdown, which counts the pauses as well.

The probe does the kind of work the library does (tuple-keyed dictionary
lookups chasing a random permutation, list building and tuple sorting)
and uses none of the library's code, so no change to the library can
change it. Its working set is small enough to stay in a core's own
caches: under one neighbour's load seen on a 2-vCPU Intel Xeon virtual
machine, the same probe over a 50,000-entry table ran 3.4 times slower
than idle, the library's queries about 2.2 times and this probe about 2
times. Its data is fixed: it does not depend on the benchmark's seed.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Tuple

#: Seconds one probe run takes, about, on an idle machine (a vCPU of that
#: Intel Xeon virtual machine, Python 3.11). A constant: it sets the unit
#: of the reported times, not their run-to-run spread.
REFERENCE_S = 0.0078

_SIZE = 2_000
_HOPS = 80_000
#: Timed probe runs per sample; the sample is their mean.
_REPEATS = 3


class SpeedProbe:
    """A fixed piece of pure-Python work, timed on demand."""

    def __init__(self) -> None:
        rng = random.Random(0)
        order = list(range(_SIZE))
        rng.shuffle(order)
        self._order = order
        self._table = {("k", i): [order[i], float(i)] for i in range(_SIZE)}

    def _once(self) -> None:
        table, order = self._table, self._order
        key, total = 0, 0.0
        for _ in range(_HOPS):
            entry = table[("k", key)]
            total += entry[1]
            key = entry[0]
        sorted((order[i], i) for i in range(_SIZE))

    def sample(self) -> Tuple[float, float]:
        """This machine's current slowdown against an idle one (1.0 idle),
        by the wall clock and by this process's CPU clock.

        An untimed first run brings the probe's data back into the caches
        the timed phase just filled, and the garbage collector is held off,
        so that what the phase left behind does not count as slowness.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._once()
            wall, cpu = time.perf_counter(), time.process_time()
            for _ in range(_REPEATS):
                self._once()
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
        finally:
            if enabled:
                gc.enable()
        scale = _REPEATS * REFERENCE_S
        return wall / scale, cpu / scale
