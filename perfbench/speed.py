"""The machine's speed while the program runs, for timing on a drifting host.

On a shared host the same Python code may run about 1.7 times slower for
a fraction of the time, in process CPU time as well as wall time.  The
slow stretches come and go within a fraction of a second, and their
share changes over minutes, so a run's wall time follows the share, and
more passes per run do not average it away.

A :class:`Sampler` therefore samples the speed all through the timed
work: a wall-clock timer interrupts the program every
:data:`INTERVAL_S`, and the signal handler times one small calibration
unit in the same process.  Work that runs while a unit takes ``u``
seconds counts at ``REFERENCE_UNIT_S / u`` of its wall time, so a
stretch of raw wall time ``t`` becomes ``t * REFERENCE_UNIT_S * mean(1 /
u)`` over the samples in it: seconds at the reference speed.  A slower
program still reads slower; a slower machine does not.  The handler's own
time is left out of the timed work.  The unit uses only the standard
library, so a change to ``hompoly`` cannot change it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Time of one calibration unit at the reference speed: about the unit's
# time, interrupting the program, on a 2-vCPU Intel Xeon box in its fast
# stretches, so scaled times there read close to wall time.
REFERENCE_UNIT_S = 0.0003
# Wall time between samples; the handler costs about 2% of it.
INTERVAL_S = 0.02


def _unit() -> Fraction:
    # Fraction arithmetic and list churn: the mix the program's exact
    # arithmetic spends its time in.
    acc = Fraction(0)
    for i in range(1, 40):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        row = [j * i for j in range(20)]
        row.sort(reverse=True)
    return acc


class Sampler:
    """Samples the unit's time every :data:`INTERVAL_S` while started.

    ``inverse`` holds ``1 / u`` for every sample; ``spent`` is the total
    time spent in the handler, to subtract from the timed work.
    """

    def __init__(self) -> None:
        self.inverse: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        # The collector stays off, so the handler never collects the
        # program's garbage on the program's behalf.
        enabled = gc.isenabled()
        gc.disable()
        _unit()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.inverse.append(1.0 / took)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        # two samples, the first one cold and dropped, so that every
        # window has a sample
        self._sample(None, None)
        self.inverse.clear()
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """A position in the samples, for :meth:`scale`."""
        return len(self.inverse)

    def scale(self, seconds: float, since: int) -> float:
        """``seconds`` of raw time, taken over the samples since ``since``,
        as seconds at the reference speed."""
        window = self.inverse[since:]
        if not window:  # shorter than one interval: use every sample so far
            window = self.inverse
        return seconds * REFERENCE_UNIT_S * sum(window) / len(window)
