"""A fixed reference computation that tracks the host's current speed.

Shared hosts drift: the same job can take 1.7 times longer for seconds or
minutes at a time when neighbours are busy.  The benchmark samples this
kernel between jobs and reports each job's time as it would read on a host
where the kernel takes ``NOMINAL_S``.  The kernel does the same kind of work
as the program (big-int Horner sums, Fractions, set scans, text and JSON)
and never calls geomindep.

Two things a job leaves behind could otherwise land in a sample and so
move the program's scaled time: collections its allocations make due, and
cold caches and allocator state.  The kernel runs with the cyclic garbage
collector off, so deferred collections are paid for by the jobs; and each
sample starts with one settling run that absorbs the rest, is reported, and
is not used.  The median of three runs after it is the sample, so one run
hit by a scheduler tick does not move it either.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from time import perf_counter

import oracle

NOMINAL_S = 0.002  # about the kernel's time on an idle 2-vCPU x86-64 host

_SET = oracle.Window(5, 160, frozenset(range(0, 165, 3)) | frozenset(range(1, 165, 7)))


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(8):
            oracle.measure(_SET, Fraction(5, 7))
            oracle.canonical_text(_SET)
            json.loads(json.dumps(list(range(300))))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def host_sample() -> tuple[float, float]:
    """(the settling run's seconds, the median of three runs after it)."""
    settle = kernel_seconds()
    return settle, sorted(kernel_seconds() for _ in range(3))[1]
