"""Host-speed probe: scales a unit's times to a nominal host speed.

The machines this benchmark runs on are shared.  Each core's speed for
the same Python code drifts by tens of percent over seconds to minutes,
independently of the other core, so a unit timed on a slow minute reads
25% slower with no change to the program.  A reference timed before or
after the unit, or on another core, does not track that drift.

So every unit runs :class:`SpeedProbe`: a timer signal interrupts the
unit's own main thread every :data:`INTERVAL_S` and times
:func:`probe_work`, a fixed loop, on the same core at that moment.  A
span of the unit is then reported as its wall time minus the probe time
inside it, multiplied by ``NOMINAL_S / mean probe time``: the seconds it
would take on a host that runs the probe in ``NOMINAL_S``.  Probes are
timed in thread CPU time, so a probe that waits for a core (the sweep's
main process shares two cores with two workers) measures the core's
speed, not the wait.  The mean, not the median, is used because the
unit's time is the time-average of the host's speed.  The probe belongs
to the benchmark, not to the program, so it is the same on every
commit; only the host moves it.

:func:`probe_work` allocates no container, so it never triggers the
garbage collector and measures the interpreter's speed, not the state
of the unit's heap.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional, Tuple

#: Seconds between probes.
INTERVAL_S = 0.1

#: Loop iterations of one probe (about 3 ms on the nominal host).
PROBE_OPS = 20_000

#: Seconds one probe takes on the nominal host.
NOMINAL_S = 0.003

_TABLE = {index: index for index in range(256)}
_LIST = list(range(256))


def probe_work(ops: int = PROBE_OPS) -> int:
    """A fixed loop of dict and list reads and small-int arithmetic."""
    table = _TABLE
    values = _LIST
    acc = 0
    for index in range(ops):
        key = (acc + index) & 255
        acc = (acc + table[key] + values[255 - key]) & 255
    return acc


class SpeedProbe:
    """Times :func:`probe_work` from a ``SIGALRM`` timer while running."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self.cpu: List[float] = []
        self._previous = None

    def _fire(self, signum, frame) -> None:
        started = time.perf_counter()
        cpu = time.thread_time()
        probe_work()
        self.cpu.append(time.thread_time() - cpu)
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def inside(self, begin: float, end: float) -> List[float]:
        """Durations of the probes that started in ``[begin, end)``."""
        return [
            duration
            for started, duration in zip(self.starts, self.durations)
            if begin <= started < end
        ]

    def speed(self, begin: float, end: float) -> Optional[float]:
        """``NOMINAL_S`` over the mean probe in the window, if any ran."""
        probes = [
            cpu
            for started, cpu in zip(self.starts, self.cpu)
            if begin <= started < end
        ]
        return NOMINAL_S / statistics.fmean(probes) if probes else None

    def scaled(
        self, begin: float, end: float, speed: Optional[float] = None
    ) -> Tuple[float, float]:
        """``(raw, scaled)`` seconds of the window ``[begin, end)``.

        ``scaled`` removes the probes' own time and applies ``speed``
        (by default the window's own).  With no speed at all, for a run
        too short to hold a single probe, the window stays unscaled.
        """
        raw = end - begin
        if speed is None:
            speed = self.speed(begin, end)
        if speed is None:
            return raw, raw
        return raw, (raw - sum(self.inside(begin, end))) * speed
