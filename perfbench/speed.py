"""Machine-speed reference for a shared machine.

Other tenants move this process's speed by up to a factor of two, in
phases from under a second to minutes.  The benchmark therefore times a
fixed kernel (which never touches the library, so no library change can
move it) after every ``SEGMENT_S`` of measured time, also in the middle of
a call that runs longer, and reports each measured stretch scaled by
``REF_S / (median kernel time of the probes around it)``: seconds at the
speed where the kernel takes ``REF_S``, about its typical time on the
2-core Xeon this benchmark was tuned on.  The raw seconds go to the run
record next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

#: seconds the kernel takes at the reference speed
REF_S = 0.004
#: a measurement is split into segments of this many seconds
SEGMENT_S = 0.1
#: probes on each side of a segment that scale it
NEAR = 3


def kernel() -> float:
    """Fixed work in the library's mix: row updates of a dense array,
    small numpy calls and interpreter loops."""
    tab = np.ones((120, 240))
    rows = np.random.default_rng(7).random((16, 240))
    acc = 0.0
    for i in range(600):
        r = rows[i % 16]
        tab[i % 120] -= 1e-9 * r
        acc += float(r[:32] @ r[32:64])
        acc += sum(j * 0.5 for j in range(12))
    return acc


class SpeedLog:
    """Probes of the kernel between measured segments.

    Measured code runs under ``run``, or reports seconds it measured
    elsewhere with ``add``.  Every ``SEGMENT_S`` of measured time a probe
    closes the open segment, inside a long call too: an interval timer
    interrupts the call, and the probe's own seconds are left out of the
    measurement.  A segment is scaled by the median of the ``NEAR`` probes
    on each side of it.  ``run`` uses ``SIGALRM``, so it must be called
    from the main thread, and not inside another ``run``.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        #: (raw seconds, index of the probe that closed the segment)
        self.segments: list[tuple[float, int]] = []
        self._pending = 0.0
        #: start of the stretch of ``run`` not yet counted in ``_pending``
        self._since = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        if self._pending:
            self.segments.append((self._pending, len(self.probes)))
            self._pending = 0.0
        self.probes.append(seconds)

    def add(self, seconds: float) -> None:
        """Count measured seconds; probe once the open segment is long enough."""
        self._pending += seconds
        if self._pending >= SEGMENT_S:
            self.probe()

    def _tick(self, signum, frame) -> None:
        self._pending += time.perf_counter() - self._since
        self.probe()
        self._since = time.perf_counter()

    def run(self, fn: Callable[[], T], inside: bool = True) -> T:
        """Call ``fn`` and count its seconds as measured.  With ``inside``,
        probe inside it every ``SEGMENT_S``; without, only after it returns
        (for a call that waits on a subprocess, whose probes would compete
        with that subprocess for the cores)."""
        if not inside:
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                self.add(time.perf_counter() - t0)
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, max(SEGMENT_S - self._pending, 1e-3), SEGMENT_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.add(time.perf_counter() - self._since)

    def measure(self, fn: Callable[[], None]) -> tuple[int, int]:
        """Run ``fn`` between two probes; returns the span of its segments."""
        self.probe()
        first = len(self.segments)
        fn()
        self.probe()
        return first, len(self.segments)

    def seconds(self, span: tuple[int, int]) -> tuple[float, float]:
        """(scaled, raw) seconds of a span returned by ``measure``."""
        scaled = raw = 0.0
        for seg, j in self.segments[span[0]:span[1]]:
            scaled += seg * REF_S / statistics.median(self.probes[max(0, j - NEAR):j + NEAR])
            raw += seg
        return scaled, raw
