"""CPU-speed calibration: a fixed pure-Python loop, timed next to the work.

On a shared host, other tenants slow this process's CPU by 1.2-2x for tens
of seconds to minutes at a time; CPU time slows with wall time, so it is
slower execution, not descheduling.  Over ten 25 s runs per workload, the
interquartile range of a run's fastest operation time was 11-15% of its
median.  The calibration loop slows with the host, and the fastest
operation time scaled by the fastest calibration time of the same run
spread 4-8%.  End-to-end times are therefore scaled by
``REFERENCE_S / fastest calibration`` and read as seconds at the reference
speed.  The loop belongs to the benchmark, so the program's changes cannot
move it.
"""

import time

# Fastest time of calibrate() seen on an idle 2-core Intel Xeon virtual machine,
# Python 3.11: the speed the scaled figures refer to.
REFERENCE_S = 0.0095


def calibrate() -> float:
    """Seconds taken by a fixed loop of 32-bit shift-register steps."""
    start = time.perf_counter()
    state = 0x12345678
    for _ in range(60_000):
        state = (state >> 1) | (((state & 0x80000003).bit_count() & 1) << 31)
    return time.perf_counter() - start
