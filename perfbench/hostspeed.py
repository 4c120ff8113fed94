"""Host speed from a fixed calibration loop, to take host contention out of timings.

The benchmark runs on a few cores of a shared host.  Other tenants slow
the core down by up to 2x, in phases of seconds to minutes, and process
CPU time slows with wall time.  A fixed calibration loop that shares no
code with drsc is timed next to the measured work; a time is then
reported at reference host speed:

    scaled = measured * REFERENCE_S / mean(calibration loop seconds)

A faster drsc lowers `measured` and leaves the loop alone, so every gain
still shows.  The loop mixes what drsc spends its time on: small numpy
array arithmetic (complex exponentials, an einsum, slice updates) and
plain interpreted Python.

`Sampler` times the loop every INTERVAL_S while a command runs, from a
SIGALRM handler in the main thread, and records when each loop ran so
its time can be taken out of the command's.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Seconds one loop takes on an uncontended core of the reference machine
# (2-core Xeon VM, Python 3.11.7, numpy 2.4.6): the lowest decile of its
# times there, which ranged from 0.012 to 0.046 s.
REFERENCE_S = 0.0130
INTERVAL_S = 0.25
_REPS = 100

_rng = np.random.default_rng(20250802)
_W = _rng.random((253, 8))
_C = _rng.random((253, 8, 8))
_Q = _rng.random(253)


def loop() -> float:
    """Run the calibration loop once; seconds it took."""
    begin = time.perf_counter()
    for r in range(_REPS):
        phases = np.exp(-1j * np.pi * _W * (0.3 + 1e-4 * r))
        amps = np.abs(np.einsum("nkj,nj->nk", _C, phases)) ** 2
        out = np.zeros_like(_Q)
        for k in range(8):
            out[: 253 - k] += amps[k:, k] * _Q[k:]
        acc = 0
        for i in range(300):
            acc += i * i
    return time.perf_counter() - begin


def scale(measured_s: float, loop_s: list[float]) -> float:
    """`measured_s` at reference host speed, given loop times taken around it."""
    return measured_s * REFERENCE_S / (sum(loop_s) / len(loop_s))


class Sampler:
    """Times the loop every INTERVAL_S between start() and stop().

    `spans` holds (begin, end) perf_counter pairs of every handler run,
    loop and re-arming included, so callers can subtract them.
    """

    def __init__(self) -> None:
        self.loop_s: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        self.loop_s.append(loop())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.spans.append((begin, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self) -> None:
        """One loop now, outside any timed interval."""
        self.loop_s.append(loop())

    def scale(self, measured_s: float) -> float:
        return scale(measured_s, self.loop_s)

    def busy_s(self, begin: float, end: float) -> float:
        """Seconds the handler ran inside [begin, end]."""
        return sum(min(e, end) - max(b, begin) for b, e in self.spans if b < end and e > begin)
