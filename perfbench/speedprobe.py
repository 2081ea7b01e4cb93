"""Machine-speed probe: rescales pass times to a fixed reference speed.

The benchmark shares a few cores of a host whose speed drifts by 10-30%
over tens of seconds while the process stays on its core (its CPU time
tracks its wall time), so plain wall times of runs made a few minutes
apart spread by more than any useful bound.  The probe measures that
drift while a pass runs: a timer signal interrupts the pass every
INTERVAL_S seconds and runs ``kernel``, a fixed pure-Python scalar float
recurrence of the kind that carries the package's eigenvalue sweeps.  The
kernel is the benchmark's own code, so a change to the package does not
change it.  A pass's reference time is its wall time less the time spent
in the probe, rescaled by the measured speed:

    ref_s = (wall_s - probe_s) * mean(NOMINAL_S / k_i)

where ``k_i`` are the kernel durations sampled through the pass (one just
before and one just after it as well), and NOMINAL_S is a fixed constant,
the kernel's duration at the reference speed.  ``mean(1 / k_i)`` is the
machine's mean speed over the pass, since the samples are spread evenly
over its wall time.  The probe takes about 1% of the pass.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
NOMINAL_S = 5e-4
_DATA = [1.0 + 1e-4 * i for i in range(5000)]


def kernel() -> int:
    """A fixed scalar recurrence: one Sturm-count sweep of a tridiagonal."""
    neg = 0
    s = 0.5
    for x in _DATA:
        if s == 0.0 or not math.isfinite(s):
            raise ArithmeticError("pivot breakdown in the speed kernel")
        if s < 0.0:
            neg += 1
        s = x - 1.25 - 0.04 / s
    return neg


class SpeedProbe:
    """Samples the kernel's duration through one timed interval."""

    def __init__(self):
        self.samples: list = []
        self.probe_s = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.probe_s += dt

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def speed(self) -> float:
        """Mean machine speed over the interval, 1.0 at the reference."""
        return sum(NOMINAL_S / k for k in self.samples) / len(self.samples)


def timed(fn, *args):
    """Run ``fn(*args)``; return (result, wall_s, ref_s, speed)."""
    probe = SpeedProbe()
    with probe:
        t0 = time.perf_counter()
        result = fn(*args)
        wall_s = time.perf_counter() - t0
    # the two edge samples fall outside [t0, t0 + wall_s]; the timer ones inside
    inside = probe.probe_s - probe.samples[0] - probe.samples[-1]
    speed = probe.speed()
    return result, wall_s, (wall_s - inside) * speed, speed
