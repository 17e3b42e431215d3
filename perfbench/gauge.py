"""Gauges the machine's speed while a sweep runs, to scale it to a fixed speed.

The benchmark runs on a few vCPUs of a shared host, whose speed changes
under the benchmark's feet: one sweep at one seed took from 4.1 to 6.4 s
within three minutes, in slow and fast spells lasting from seconds to a
minute.  A reference load timed before or after a sweep does not track that
(its correlation with the sweep was 0.6), so the gauge samples the speed
*during* the sweep: every ``PERIOD_S`` of wall time an interval timer
interrupts the process and times ``_probe``, a fixed load of about 0.3 ms
that mixes pure-Python dict and integer work with small numpy operations,
and uses no code of the program.

A probe that takes ``p`` seconds says the machine ran at ``REFERENCE_PROBE_S
/ p`` of the reference speed over the interval around it.  Probes are spread
evenly over wall time, so the mean of that ratio is the share of reference
work the machine did per second, and

    scaled seconds = (measured seconds - time spent in probes) x mean ratio

is how long the measured call would have taken at the reference speed.  On
the same sweep and seed, repeated in fresh processes, scaling cut the
spread from 10.3% to 2.7% (coefficient of variation over 29 runs).  The
probes take about 1% of the time they gauge, which the scaling removes.  A
change to the program changes what the probes interrupt, not the probes:
their working set is a few kilobytes and stays in cache.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["PERIOD_S", "REFERENCE_PROBE_S", "Reading", "UNGAUGED", "SpeedGauge"]

#: Wall seconds between two probes.
PERIOD_S = 0.05
#: The probe's time at the reference speed: about its time on an idle
#: two-vCPU x86 box.  Scaled seconds are seconds at this speed.
REFERENCE_PROBE_S = 3.0e-4

_ARRAY = np.arange(256, dtype=np.int64)


def _probe() -> float:
    """Seconds one run of the fixed load takes."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    folded = 0
    for value in range(1500):
        table[value & 63] = table.get(value & 63, 0) + value
        folded ^= value * 7
    for _ in range(20):
        folded += int((_ARRAY * 3 % 7).sum())
    return time.perf_counter() - start


@dataclass(frozen=True)
class Reading:
    """The probes taken over one interval of a process's life."""

    probe_s: float
    """Seconds spent in the probes."""
    speed: float
    """Mean of ``REFERENCE_PROBE_S / p`` over the probes; 1.0 with none."""
    probes: int

    def scale(self, seconds: float) -> float:
        """``seconds`` of the interval, without the probes, at the reference speed."""
        return (seconds - self.probe_s) * self.speed


UNGAUGED = Reading(probe_s=0.0, speed=1.0, probes=0)


class SpeedGauge:
    """Takes a probe every ``PERIOD_S`` from ``start()`` to ``stop()``.

    ``take()`` returns the reading since the previous ``take()`` (or since
    ``start()``).  The probes run in a ``SIGALRM`` handler, so in the main
    thread between two bytecodes; system calls they interrupt are restarted.
    """

    def __init__(self) -> None:
        self._probes: list[float] = []
        self._previous = None

    def _handle(self, signum, frame) -> None:
        self._probes.append(_probe())

    def start(self) -> None:
        for _ in range(3):
            _probe()
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def take(self) -> Reading:
        probes, self._probes = self._probes, []
        if not probes:
            return UNGAUGED
        return Reading(
            probe_s=sum(probes),
            speed=statistics.fmean(REFERENCE_PROBE_S / p for p in probes),
            probes=len(probes),
        )

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
