"""Host speed sampled between operations, to time them on one scale.

On a shared host, cores run up to a third slower for seconds at a time
(other tenants), and CPU time slows with wall time, so raw host seconds
of identical runs spread by +-15%.  A fixed pure-Python probe loop runs
between operations; an operation's *reference time* is its host time
scaled by :data:`REFERENCE_S` over the median probe time around it, so
a slow period stretches the probe and the operation alike.  The probe
tracks NumPy-heavy code too (correlation 0.9 over 1 s windows on the
2-vCPU reference host).  A change that adds or removes work in the
program moves the operations, not the probe.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "SpeedTrack", "probe"]

#: Iterations of the probe loop (about 1.5 ms).
PROBE_LOOPS = 20_000
#: Median probe time on the unloaded 2-vCPU reference host.
REFERENCE_S = 1.5e-3
#: Probes on each side of an operation whose median sets its speed.
WINDOW = 3


def probe() -> float:
    """Host seconds of one fixed probe loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedTrack:
    """Probe samples taken before the first and after every operation."""

    def __init__(self) -> None:
        self.samples = [probe()]

    def mark(self) -> None:
        """Sample after an operation ends."""
        self.samples.append(probe())

    def scale(self, i: int) -> float:
        """Reference seconds per host second for operation ``i``.

        Operation ``i`` ran between samples ``i`` and ``i + 1``.
        """
        lo = max(0, i + 1 - WINDOW)
        local = statistics.median(self.samples[lo : i + 1 + WINDOW])
        return REFERENCE_S / local

    def reference_times(self, host_times: list[float]) -> list[float]:
        """Each operation's host time on the reference scale."""
        return [t * self.scale(i) for i, t in enumerate(host_times)]
