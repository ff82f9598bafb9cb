"""Host speed from a fixed slice of reference work, timed on a periodic timer.

On a shared host the CPU speed this process gets drifts by up to 2x within
minutes, and a whole 20 s run, or one 8 s trial, can land in a slow or a fast
phase.  While a ``HostClock`` is running, a SIGALRM timer runs a calibration
slice every ``INTERVAL_S`` in the main thread, between two bytecodes of
whatever is running.  The clock's ``now`` leaves the slices' time out, and
``speed`` turns the slices timed in a window into the host speed relative to
the reference host, so a timing times its window's speed is the timing at the
reference speed.  The slice uses none of the package's code, so a change to
the package cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

CAL_REFERENCE_S = 3.5e-3  # one slice on a quiet 2-core Intel Xeon host
INTERVAL_S = 0.1  # one slice (about 3 ms) per 100 ms of work
WINDOW_S = 0.5  # slices this far either side of a timed interval count for it
BALLAST = 16384  # list length copied by a slice, as long as the longest session


class _Slot:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


def _calibration_step(slot: _Slot, x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + float(np.log(np.sum(np.exp(x - m)))) + slot.value


def calibration_slice(ballast: list, iterations: int = 200, copies: int = 20) -> float:
    """Seconds for a fixed mix of interpreter work, small numpy reductions and copies.

    The mix resembles the package's two kinds of hot path: calls, attribute
    reads, 2-element array reductions and dict stores, and whole-history
    copies (``tuple`` of a long list of small arrays, which touches every
    element).
    """
    x = np.array([0.3, -0.2])
    slot, acc, table = _Slot(1.0), 0.0, {}
    start = time.perf_counter()
    for i in range(iterations):
        acc += _calibration_step(slot, x)
        table[i & 63] = (acc, i)
        x = x * 1.0
    for _ in range(copies):
        tuple(ballast)
    return time.perf_counter() - start


class HostClock:
    """Work clock with periodic calibration; use as a context manager."""

    def __init__(self) -> None:
        self.paused = 0.0
        self.samples: list[tuple[float, float]] = []  # (work time, slice seconds)
        self._running = False
        self._ballast = [np.zeros(2) for _ in range(BALLAST)]

    def now(self) -> float:
        """perf_counter minus the time spent in calibration slices."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:  # no slice ran between the two reads
                return t - paused

    def _slice(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append((start - self.paused, calibration_slice(self._ballast)))
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        self._running = True
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stop the timer and restore the previous handler; safe to call twice."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False
            self._slice()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def speed(self, start: float, end: float) -> float:
        """Host speed over [start, end] in work time (1.0 = reference, lower = slower)."""
        near = [c for t, c in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return CAL_REFERENCE_S / statistics.median(near or [c for _, c in self.samples])
