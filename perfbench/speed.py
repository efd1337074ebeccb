"""Host-speed sampler that turns wall times into reference-speed seconds.

On a shared host the same command can take anywhere from 1x to 2x its
fastest time, depending on what other tenants run on the same cores, and
process CPU time varies almost as much as wall time (README.md). A
SIGALRM timer runs a fixed pure-Python kernel every PERIOD_S seconds on the
benchmark's own (only) thread while a measured phase runs. Each sample
gives the host's speed at that moment relative to REF_KERNEL_S, so a phase's
wall time, minus the time spent sampling, scaled by the (trimmed) mean of
those ratios, estimates the phase's time on a host running at reference
speed: if the host runs at speed 1/k(t), the work done in wall time T is
T * mean(1/k), which is the scaled time.

The platoonsim phases slow down less than the kernel does: regressing log
wall time on log sampled speed over 90 benchmark runs on a shared 2-CPU Xeon VM gave
exponents of 0.84-0.97 for CLI commands and 0.31-0.57 for set-up (imports
spend part of their time on file and page-cache work that contention hits
less). `scaled` therefore takes the sampled speed to a phase's exponent.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

PERIOD_S = 0.04
KERNEL_ITERS = 1500
# Kernel time on an uncontended core of the 2-CPU Xeon VM the benchmark
# was written on; only ratios matter, so this just sets the unit.
REF_KERNEL_S = 0.0007
COMMAND_EXPONENT = 0.9
SETUP_EXPONENT = 0.5


def _kernel() -> int:
    # float maths and string formatting, like the workloads, but no object
    # the garbage collector tracks: a collection inside a sample would make
    # the host look slow
    acc = 0.0
    chars = 0
    for i in range(KERNEL_ITERS):
        acc += math.atan(i * 0.01) * 1.0001
        chars += len(f"{acc:.6f}")
    return chars


class SpeedSampler:
    """Samples host speed from SIGALRM while active (main thread only)."""

    def __init__(self):
        self.ratios: list[float] = []  # REF_KERNEL_S / kernel time
        self.spent = 0.0  # seconds spent inside the sampler
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _kernel()
        dt = perf_counter() - t0
        self.ratios.append(REF_KERNEL_S / dt)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        for _ in range(5):  # the first calls in a fresh process run cold
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float, float]:
        """Opaque position for `scaled` (sample count, sampler time, clock)."""
        return len(self.ratios), self.spent, perf_counter()

    def scaled(self, since: tuple[int, float, float], exponent: float) -> tuple[float, float]:
        """(wall seconds, reference-speed seconds) of the phase since a mark."""
        n0, spent0, t0 = since
        wall = perf_counter() - t0 - (self.spent - spent0)
        ratios = sorted(self.ratios[n0:])
        if not ratios:  # phase shorter than one period: no evidence, no scaling
            return wall, wall
        # drop the slowest and fastest tenth: a sample can stall for reasons
        # other than host speed (a fresh process faulting its pages in)
        cut = len(ratios) // 10
        kept = ratios[cut:len(ratios) - cut]
        return wall, wall * math.fsum(r ** exponent for r in kept) / len(kept)
