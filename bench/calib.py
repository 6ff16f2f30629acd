"""The calibration loop the benchmark scales its times by.

The machine this benchmark was defined on is a shared 2-core host. Timed
at millisecond grain, a fixed loop runs at one speed most of the time and
at half that speed in episodes of one to a few seconds, whose share of the
time changes from hour to hour. Raw times of the same code spread 6% to 25%
(quartile distance over the median) between 40 s runs, more than any bound
a benchmark may set. So every end-to-end time is reported in reference
seconds:

    reference seconds = measured seconds * speed / REF_SPEED

where `speed` is the loop's speed, in units per second, measured in the
same process during, or right next to, the interval, and REF_SPEED is its
speed on the machine the benchmark was defined on, outside the slow
episodes. A machine that runs the loop at REF_SPEED reads real seconds.

The loop is pure Python: series of 256-bit fixed-point terms with calls
and tuples, like the interpreter work of the program. It runs no lenscert
code, so no change to the program moves it; a change to the interpreter or
the machine moves both. A variant that also read a table of a few hundred
kilobytes tracked the program worse: scaled by it, three-dimension tight
calls spread 26%, against 6% with this loop and 16% unscaled.
"""

from __future__ import annotations

import signal
import statistics
import time

# units per second of the loop on the machine the benchmark was defined on
REF_SPEED = 4400.0
# the interval at which Sampler times one unit
TICK_S = 0.01

_ONE = 1 << 256


def _term(t: tuple[int, int], k: int, z: int) -> tuple[int, int]:
    mant, exp = t
    mant = (mant * z >> 256) * ((k + 1) * (k + 3)) // ((k + 5) * k)
    shift = mant.bit_length() - 256
    if shift > 0:
        return mant >> shift, exp + shift
    return mant << -shift, exp + shift


def _unit(z: int) -> int:
    """One series of 200 terms."""
    t = (_ONE, -256)
    total = 0
    for k in range(1, 200):
        t = _term(t, k, z)
        total += t[0] >> (t[1] & 7)
    return total


def speed(units: int) -> float:
    """Units per second of `units` units of the loop, run now."""
    z = _ONE // 3
    t0 = time.perf_counter()
    acc = 0
    for i in range(units):
        acc ^= _unit(z + i)
    elapsed = time.perf_counter() - t0
    if acc == 0:
        raise RuntimeError("calibration loop computed nothing")
    return units / elapsed


def scale(seconds: float, units_per_s: float) -> float:
    """Measured seconds in reference seconds, given the loop's speed then."""
    return seconds * units_per_s / REF_SPEED


class Sampler:
    """Samples the loop's speed all through a stretch of work.

    While active, a real-time interval timer fires every TICK_S and its
    signal handler, which Python runs between the bytecodes of whatever the
    process is doing, times one unit of the loop. The samples are spread
    over the work's wall time, slow episodes included, and `spent_s` is the
    time the handler took, to be taken out of the work's time.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.speeds.append(speed(1))
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.speeds:
            # work shorter than one tick: sample right after it
            self.speeds.append(speed(1))

    def mean_speed(self) -> float:
        """The mean of the sampled speeds, in units per second."""
        return statistics.mean(self.speeds)
