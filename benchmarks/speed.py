"""Speed probe: rescale measured times to a fixed reference speed.

On a shared VM the throughput of one vCPU swings by up to 2x within
seconds, and the two vCPUs swing independently (a fixed pure-Python loop
took 4.4 ms or 8.5 ms on the same vCPU within one minute; the correlation
between vCPUs was 0.36). Wall times of the same work then spread by 20-40 %
from run to run. The probe runs a fixed loop of Fraction additions on a
timer signal every 10 ms in the measuring thread, on the CPU the benchmark
is pinned to. An interval's reported time is its wall time, less the probes
that ran inside it, times the mean of REF_PROBE_S / probe time over the
probes in and next to it: the wall seconds the same work takes when the
probe loop takes REF_PROBE_S. Repeating one 7 s filtration op, the
coefficient of variation was 9 % raw, 3 % with an integer probe loop and
0.5 % with this one.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
# About the median probe time on the 2-vCPU Xeon VM this benchmark was built
# on, so reported times stay close to that VM's typical wall times.
REF_PROBE_S = 1.3e-4


def _probe_work() -> Fraction:
    s = Fraction(0)
    for i in range(40):
        s += Fraction(1, i % 7 + 1)
    return s


class SpeedProbe:
    """Context manager sampling the probe loop on SIGALRM."""

    def __init__(self):
        self.samples = []       # probe durations in firing order
        self._old_handler = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, wall: float, first: int, last: int) -> float:
        """Reference-speed seconds of an interval that began when `first`
        probes had run and ended when `last` had."""
        inside = self.samples[first:last]
        near = self.samples[max(first - 1, 0):last + 1]
        return (wall - sum(inside)) * statistics.fmean(REF_PROBE_S / d for d in near)
