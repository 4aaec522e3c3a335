"""Machine-speed yardsticks for the end-to-end timings.

The small virtual machines this benchmark runs on change speed by up to
a factor of two within seconds, as other tenants load the host (NOTES.md).
A fixed reference, timed at the same moments as the program, measures
that speed; each timing is then rescaled to the speed at which the
reference takes its nominal time. The references are not program code,
so a change to the program does not move them.

Commands: :class:`Yardstick` times :func:`kernel` from a ``SIGALRM``
handler every :data:`PERIOD_S` of wall time, in the main thread between
two bytecodes of whatever runs. The handler's own time is counted in
:attr:`Yardstick.busy`, which the caller subtracts from the command it
interrupted.

Set-up: each fresh interpreter that imports the program is rescaled by
fresh interpreters that run :data:`REFERENCE_IMPORT` just before and just
after it. The kernel follows the speed of a whole interpreter start
badly (NOTES.md).
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time

import numpy as np

#: wall seconds between two samples; a sample takes about 4 ms, so the
#: kernel adds about 2% to the wall time of a run
PERIOD_S = 0.2
#: kernel time that defines the nominal machine speed; about the median
#: kernel time on the 2-core VM described in NOTES.md
NOMINAL_S = 4.0e-3
#: least number of samples behind one rescaled interval; a shorter
#: interval takes the samples nearest to its midpoint
MIN_SAMPLES = 4

#: the set-up reference: a fresh interpreter that loads the program's
#: heavy dependencies, about nine tenths of the program's own set-up
REFERENCE_IMPORT = "import numpy, scipy.interpolate"
#: wall seconds of REFERENCE_IMPORT that define the nominal set-up speed;
#: about its median on the 2-core VM described in NOTES.md
NOMINAL_IMPORT_S = 0.9

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_V = _A[:, 0].copy()


def kernel(n: int = 600) -> complex:
    """Small complex matrix products and scalar Python work, like the
    program's inner loops."""
    v, acc, table = _V, 0j, {}
    for i in range(n):
        v = _A @ v
        v = v / np.sqrt(abs(np.vdot(v, v)))
        acc += complex(v[i % 8]) * cmath.exp(1j * i)
        table[i & 15] = acc
    return acc


class Yardstick:
    """Times :func:`kernel` every :data:`PERIOD_S` between :meth:`start`
    and :meth:`stop`."""

    def __init__(self):
        self.samples = []  # (midpoint, seconds) of each kernel run
        self.busy = 0.0  # wall seconds spent in the handler so far
        self._in_handler = False

    def _tick(self, signum, frame):
        if self._in_handler:
            return
        self._in_handler = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))
            self.busy += time.perf_counter() - t0
        finally:
            self._in_handler = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean kernel time of the samples taken in
        [t0, t1], or of the MIN_SAMPLES samples nearest to its midpoint if
        fewer fell inside. Multiply a wall time measured over that interval
        by it to get the time at nominal speed."""
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [dt for _, dt in nearest]
        if not inside:
            raise RuntimeError("no yardstick samples were taken")
        return NOMINAL_S / statistics.fmean(inside)
