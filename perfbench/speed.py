"""A fixed reference loop that measures how fast the host runs right now.

On a VM that shares its cores with other tenants, every process speeds
up and slows down with their load; on the 2-core x86-64 VM this
benchmark was tuned on, by up to 1.8x, in episodes from a second to
minutes long.  A whole run can sit in a slow episode, and no statistic
over its own samples removes that.  So the benchmark times this loop
just before and just after every sample and scales the sample's times
by ``NOMINAL_S`` over the loop's time around it.  Under the same
slow-down, both times grow by the same factor and the scaled time stays
put; a change to the program under test changes the sample's time and
leaves the loop's alone.

The loop is plain interpreter work on a few small integers.  On that VM
it tracked the samples' slow-downs more closely than references that
parse text, run numpy kernels, touch 64 MB of memory or start a Python
process.
"""

from __future__ import annotations

import statistics
import time

# mean time of one pass on a 2-core x86-64 VM in its faster state; it
# sets the scale of the scaled times and nothing else
NOMINAL_S = 0.022
LOOP = 400_000
PASSES = 8


def _pass():
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.perf_counter() - t0


def reference_s():
    """Mean seconds of one pass of the fixed loop, right now.

    A mean, not a median: the sample's wall time takes in the host's
    short stalls too, so the reference must count them the same way.
    """
    return statistics.fmean(_pass() for _ in range(PASSES))
