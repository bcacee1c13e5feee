"""Timing of one request: its time limit, and the machine's speed while it ran.

The machine's speed drifts by tens of percent within seconds (cores are
shared), so every time is also reported at a reference speed.  A fixed
calibration kernel (exact rational elimination plus dict and sort work,
stdlib only, so no change to the program can move it) runs just before and
just after each request and, every TICK_S while the request runs, from an
interval-timer signal handler.  A request's time at reference speed is its
wall time, less the time spent in that handler, scaled by REF_S over the
mean kernel time seen around and during it.
"""

from __future__ import annotations

import dataclasses
import signal
import statistics
import traceback
from fractions import Fraction
from time import perf_counter

REF_S = 0.005  # typical kernel time; times are reported at this speed
TICK_S = 0.05
LIMIT_S = 20.0  # a request over this counts as failed


def _kernel():
    n = 10
    a = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) + (5 if i == j else 0)
          for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for c in range(n):
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [v - f * p for v, p in zip(a[r], a[c])]
    table = {(i % 17, str(i)): frozenset(range(i % 7)) for i in range(300)}
    sorted(table, key=lambda k: (k[1], k[0]))


def calibrate():
    """Wall time of one run of the calibration kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def at_reference_speed(wall_s, kernel_times):
    return wall_s * REF_S / statistics.mean(kernel_times)


class RequestTimeout(BaseException):
    """Raised from the timer handler when a request exceeds LIMIT_S.

    A BaseException, so that no `except Exception` inside the program can
    swallow it.
    """


@dataclasses.dataclass
class Measurement:
    wall_s: float  # from call to verdict, less the calibration handler's time
    ref_s: float  # wall_s at reference speed
    kernel_s: list  # calibration kernel times before, during and after
    result: object
    error: str | None


def measure(call, sample=True):
    """Run `call()` under the time limit, sampling speed unless `sample` is off.

    A traced pass turns sampling off, so that no handler time lands inside
    the spans it records; the limit is enforced either way.
    """
    kernels = [calibrate()]
    handler_s = 0.0

    def on_tick(signum, frame):
        nonlocal handler_s
        entered = perf_counter()
        if entered - start > LIMIT_S:
            raise RequestTimeout()
        if sample:
            kernels.append(calibrate())
        handler_s += perf_counter() - entered

    signal.signal(signal.SIGALRM, on_tick)
    result, error = None, None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        error = f"exceeded the {LIMIT_S:g} s request limit"
    except Exception as exc:  # a raising request is a failed request, not a crash
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    wall = perf_counter() - start - handler_s
    kernels.append(calibrate())
    return Measurement(wall, at_reference_speed(wall, kernels), kernels, result, error)
