"""Host pace: how fast the machine runs this process right now.

On a shared host the same code can run 1.5x slower for seconds to
minutes at a time, with every kind of work (interpreter loops, numpy
passes over memory) slowed alike.  A raw wall time then measures the
neighbours as much as the program.  The benchmark therefore runs a fixed
reference burst between every two ops and scales each op's wall time by

    NOMINAL_S / (mean of the bursts just before and just after the op)

so a phase in which the whole process runs slower cancels out, while a
change in the program itself still moves the scaled time one for one.
The reference is this file's own code and calls nothing in the package.
The package can still reach it in two ways: ops that leave the caches
colder slow the next burst by a few percent, and work left running
between ops (a thread, say) would slow it more; either shrinks the paced
times.  The package starts no threads today; a change that does, or
that moves much more memory per op, should be judged on the raw wall
lines that run.py prints as well.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

# about the median pass on the reference box (2 vCPU Xeon,
# Python 3.11.7, numpy 2.4.6), so scaled times read as that box's ms
NOMINAL_S = 1.2e-3
TRIES = 3  # a burst is the median of this many timed passes

_ARRAY = np.arange(1 << 16, dtype=np.int32)
_SCRATCH = np.empty_like(_ARRAY)
_FRESH_BYTES = 1 << 19


def _pass() -> int:
    """Interpreter work, numpy passes over cached memory and page faults
    on fresh memory, the three kinds of work the ops do.

    The numpy part works in place on preallocated arrays: a temporary of
    this size would come from mmap or from the heap depending on what
    the program freed before, which would tie the reference's speed to
    the program's memory use.  The faulting part maps its own fresh
    pages for the same reason.
    """
    s = 0
    table = {}
    for i in range(2500):
        s += (i * i) ^ (i >> 3)
        table[i & 63] = s
    v, w = _ARRAY, _SCRATCH
    for shift in (1, 2, 3, 4, 5, 6):
        np.right_shift(v, shift, out=w)
        np.bitwise_xor(w, v, out=w)
        np.add(w, shift, out=w)
    with mmap.mmap(-1, _FRESH_BYTES) as fresh:
        pages = np.frombuffer(fresh, np.uint8)
        pages[:: mmap.PAGESIZE] = 1
        del pages
    return s + int(w[-1])


def burst() -> float:
    """Seconds one reference pass takes now (median of TRIES passes)."""
    clock = time.perf_counter
    times = []
    for _ in range(TRIES):
        t0 = clock()
        _pass()
        times.append(clock() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two bursts into
    reference-pace time."""
    return NOMINAL_S / ((before + after) / 2)
