"""Timings in seconds at a fixed machine speed.

On a shared machine the processor's speed swings by up to 2x within
seconds, for minutes at a time, and CPU time swings with it.  A fixed
loop of small numpy operations, run just before and just after each
timed step and every ``PERIOD_S`` during it, measures the speed at those
moments; the step's time is scaled by how much slower than
``REFERENCE_S`` the loop ran on average.  The loop uses no multitag
code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import threading
import time
from types import SimpleNamespace

import numpy as np

# About the time of calibration_loop() between the steps of a round on an
# undisturbed core of a 2-core Intel Xeon (2.1 GHz) virtual machine, whose
# 5th percentile was 1.0-1.2 ms.
REFERENCE_S = 1.0e-3


_RECORDS = [SimpleNamespace(key=i % 7) for i in range(1500)]


def calibration_loop():
    """Seconds for the two kinds of work multitag does: tiny matrix-vector
    products and tanh, as per example, and filtering a list of records by
    an attribute, as when parsing and grouping."""
    a = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    v = np.ones(4)
    t0 = time.perf_counter()
    for _ in range(200):
        h = np.tanh(a @ v)
        v = np.tanh(a.T @ h)
    for key in range(8):
        [r for r in _RECORDS if r.key == key]
    return time.perf_counter() - t0


PERIOD_S = 0.1  # about 1% of the machine goes to the loops in a step


class Sampler:
    """Runs calibration_loop every PERIOD_S on a background thread while
    the block runs.  The loop takes the interpreter lock for about a
    millisecond, so it runs between the timed step's own bytecodes and
    sees the speed of the core the step runs on."""

    def __init__(self):
        self.samples = []  # (midpoint, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            seconds = calibration_loop()
            self.samples.append((t0 + seconds / 2, seconds))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def at_reference(self, t0, t1, before, after):
        """The interval [t0, t1], bracketed by the calibration loops
        ``before`` and ``after``, in seconds at the reference speed."""
        during = [s for m, s in list(self.samples) if t0 <= m <= t1]
        loops = [before, after] + during
        return (t1 - t0) * REFERENCE_S * len(loops) / sum(loops)


def typical_round(rounds):
    """Stage seconds of a round made of each step's median over repeats.

    ``rounds`` holds each round's steps as (stage, work, seconds); every
    round takes the same steps in the same order.  Steps naming the same
    ``work`` do equal work and pool their repeats.
    """
    def key(i, work):
        return i if work is None else work

    repeats = {}
    for steps in rounds:
        for i, (_, work, t) in enumerate(steps):
            repeats.setdefault(key(i, work), []).append(t)
    stages = {}
    for i, (name, work, _) in enumerate(rounds[0]):
        stages[name] = stages.get(name, 0.0) + statistics.median(
            repeats[key(i, work)])
    return stages
