"""Host-speed reference for the timed end-to-end metrics.

The benchmark's host shares its cores with other machines, and its speed
drifts in phases of seconds to minutes: one fixed pure-Python loop, timed
back to back for a minute, took between 107 and 198 ms on a 2-CPU VM, with
CPU time equal to wall time (so the loss is not steal).  The phases of the
two CPUs are independent (the same loop run on both at once: correlation
0.14 over 1-s windows).  A run of tens of seconds cannot average them out.

So the benchmark times a fixed interpreter workload, :func:`reference`, on
each CPU the measured work runs on, between the timed work items (before
every plan, at every serve segment barrier), and reports each timed metric
as it would read on a host where one reference takes :data:`REFERENCE_S`:
raw seconds times ``REFERENCE_S / r``, where ``r`` is the reference's
time-weighted mean over the measured interval, averaged over the CPUs.  The
reference runs in the benchmark's own process, never inside a timed
interval, and depends on no code under ``src/``, so a faster program still
reads faster.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time

#: Nominal seconds of one :func:`reference` call, about its typical duration
#: on the 2-CPU VM the bounds were measured on.  It only scales the reported
#: figures.
REFERENCE_S = 0.025
#: The reference's random-access working set: 4 MiB, more than a core's
#: private cache, so the reference slows like the planner when a neighbour
#: on the same core competes for it.  Immutable: every call reads the same.
_WORKING_SET = bytes(range(256)) * (1 << 14)


def reference() -> float:
    """Seconds one fixed interpreter workload takes now.

    Random reads over :data:`_WORKING_SET`, integer arithmetic,
    dict updates and list sorts, like the planner's Python loops; the
    collector is paused so the benchmark's own heap does not change the
    figure.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cells = _WORKING_SET
        rng = random.Random(1)
        table: dict[int, float] = {}
        window: list = []
        x = acc = 12345
        for i in range(14_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            acc = (acc + cells[x & 0x3FFFFF] + i) & 0xFFFFF
            key = rng.randrange(512)
            table[key] = table.get(key, 0.0) + i * 0.5
            window.append((key, acc))
            if len(window) > 256:
                window.sort()
                window = window[128:]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_on(cpu: int) -> float:
    """:func:`reference` with the calling thread pinned to ``cpu``."""
    allowed = os.sched_getaffinity(0)
    if allowed == {cpu}:
        return reference()
    os.sched_setaffinity(0, {cpu})
    try:
        return reference()
    finally:
        os.sched_setaffinity(0, allowed)


class HostClock:
    """Reference samples taken between the work items of one measurement.

    Each sample is the mean over the CPUs the creating thread may use: the
    CPUs the measured work may run on.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[tuple[float, float]] = []  # (when, seconds)

    def sample(self) -> None:
        when = time.perf_counter()
        self.samples.append((when, statistics.fmean(reference_on(c) for c in self.cpus)))

    def mean_reference(self) -> float:
        """Time-weighted mean reference: each interval between two samples
        counts the mean of its end samples, weighted by its length."""
        if len(self.samples) < 2:
            return self.samples[0][1] if self.samples else REFERENCE_S
        weighted = total = 0.0
        for (t0, r0), (t1, r1) in zip(self.samples, self.samples[1:]):
            weighted += (t1 - t0) * (r0 + r1) / 2
            total += t1 - t0
        return weighted / total

    def factor(self) -> float:
        """Multiply raw seconds by this to get seconds at the nominal speed."""
        return REFERENCE_S / self.mean_reference()

    def summary(self) -> dict:
        return {"samples": len(self.samples), "cpus": self.cpus,
                "reference_ms": self.mean_reference() * 1e3, "factor": self.factor()}
