"""Machine-speed probe for timing jobs on a shared host.

On a few vCPUs of a shared host the speed of this process changes in phases
of seconds to minutes, by up to 1.6x, with the neighbours' load.  A job
timed in one phase and again in another differs by that much although the
program is the same.  ``Pace`` samples the speed while the job runs: a timer
signal interrupts the job every ``interval`` seconds and times a fixed
reference kernel.  The job's time is then rescaled to the reference's
nominal speed:

    paced_s = sum over intervals of  job time in the interval
                                     * nominal / reference time nearby

so a job that takes 3 s while the reference takes its nominal time reads
about 3 s in every phase.  The reference does not use adg2, so a change to
the program moves paced_s exactly as it moves the job's own time.  The time
spent in the probe itself is taken out of the job's time.

The phases slow different kinds of work by different amounts, so each
workload names the kernels its reference is made of (``KERNELS``): the kinds
of work its job does.  Each kernel takes about 2.5 ms.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.fft

INTERVAL_S = 0.1
SMOOTH = 5  # reference times are the median of this many neighbouring probes

_rng = np.random.default_rng(0)
_MATS = _rng.normal(size=(256, 2, 2)) + 1j * _rng.normal(size=(256, 2, 2))
_CUBE = _rng.normal(size=(24, 24, 24))


def _python() -> None:
    """Interpreted integer arithmetic."""
    s = 0
    for i in range(33000):
        s += (i * i) & 255


def _matmul() -> None:
    """Batched 2x2 complex matrix products on a small array."""
    m = _MATS
    for _ in range(13):
        m = _MATS @ m + m @ _MATS.conj()
        m = m / np.abs(m).max()


def _fft() -> None:
    """Type-1 sine transforms of a 24^3 cube."""
    for _ in range(8):
        scipy.fft.dstn(_CUBE, type=1)


# name -> (kernel, nominal seconds: about its median on a 2-vCPU Intel Xeon host)
KERNELS = {
    "python": (_python, 0.0025),
    "matmul": (_matmul, 0.0025),
    "fft": (_fft, 0.0025),
}


class Pace:
    """Context manager that times the reference during a job.

    ``kernels`` names the parts of the reference (keys of KERNELS).
    ``samples`` holds (time the probe started, probe seconds); ``paced(t0,
    t1)`` rescales the job that ran from t0 to t1 (perf_counter seconds)."""

    def __init__(self, kernels, interval: float = INTERVAL_S):
        self.parts = [KERNELS[k][0] for k in kernels]
        self.nominal = sum(KERNELS[k][1] for k in kernels)
        self.interval = interval
        self.samples = []
        self._old = None

    def reference(self) -> float:
        """Run the reference once; its seconds."""
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, self.reference()))

    def __enter__(self) -> "Pace":
        self.samples = []
        self.reference()  # warm-up
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def paced(self, t0: float, t1: float) -> float:
        """Job seconds between t0 and t1, less probe time, at nominal speed."""
        inside = [(s, d) for s, d in self.samples if t0 <= s < t1]
        if not inside:  # a job shorter than one interval
            return (t1 - t0) * self.nominal / self.reference()
        half = SMOOTH // 2
        refs = [d for _, d in inside]
        total, edge = 0.0, t0
        for k, (start, dur) in enumerate(inside):
            near = statistics.median(refs[max(0, k - half):k + half + 1])
            total += (start - edge) * self.nominal / near
            edge = start + dur
        return total + (t1 - edge) * self.nominal / statistics.median(refs[-SMOOTH:])

    def median_reference(self, runs: int) -> float:
        """Median seconds of the reference over runs runs, after a warm-up."""
        self.reference()
        return statistics.median(self.reference() for _ in range(runs))
