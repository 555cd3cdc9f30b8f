"""Timing at a reference speed of the machine.

The host this benchmark was written on runs Python at a speed that changes
with the load other machines put on it, by up to a factor of two over tens
of seconds.  Every measured step therefore runs between two passes of
calibration_loop, fixed pure-Python work that never touches the package,
and is reported at the reference speed: its time times CAL_REF_S over the
mean of the two loops.  Interference slows the step and its neighbouring
loops alike and cancels out; a change to the package's own speed does not.

Imports nothing but time, so that a fresh interpreter can load it before
the package without importing anything the package would.
"""

import time

# Seconds calibration_loop takes at the reference speed: a fixed constant,
# close to its time on the 2-core VM the benchmark was written on (CPython
# 3.11.7), where it ranged from 0.018 s to over 0.04 s with the host's load.
CAL_REF_S = 0.025


def calibration_loop() -> int:
    table = {}
    acc = 0
    for i in range(40_000):
        x = i * 2654435761 % 1_000_003
        key = x & 1023
        table[key] = table.get(key, 0) + (x >> 3)
        pair = (x, i)
        acc += pair[0] if x & 1 else -pair[1]
    return acc


def time_calibration() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)


class Yardstick:
    """Wall times of measured steps, each between two calibration loops."""

    def __init__(self):
        self.times = []
        self.cals = [time_calibration()]

    def measure(self, fn):
        t0 = time.perf_counter()
        out = fn()
        self.times.append(time.perf_counter() - t0)
        self.cals.append(time_calibration())
        return out

    def reference_times(self):
        return [at_reference_speed(t, a, b) for t, a, b in zip(self.times, self.cals, self.cals[1:])]
