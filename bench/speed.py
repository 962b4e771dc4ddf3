"""Machine-speed reference for scaling the benchmark's times.

Shared machines change speed: on the 2-vCPU VM where this benchmark was
defined, the same pass ran up to 1.7x slower for seconds to minutes at a
time, in every process alike.  Each timed unit (an item, a worker start) is
therefore scaled by ``REF_S / r``, where ``r`` is the time of a fixed
kernel measured right around it.  The kernel is pure bytecode on a list of
small ints: it allocates no objects, so it cannot trigger garbage
collection or depend on what the program has allocated, and no change to
``pgs`` can move it.  ``REF_S`` is its median time on that VM, so scaled
times read in that machine's seconds.
"""

from __future__ import annotations

import random
import statistics
import time

REF_STEPS = 40_000
REF_SAMPLES = 3
REF_S = 0.0043
_PERM = random.Random(0).sample(range(256), 256)


def reference_time() -> float:
    """Median seconds of REF_SAMPLES runs of the fixed kernel."""
    p = _PERM
    times = []
    for _ in range(REF_SAMPLES):
        x = acc = 0
        t = time.perf_counter()
        for i in range(REF_STEPS):
            x = p[x ^ (i & 255)]
            acc = (acc + x) & 255
        times.append(time.perf_counter() - t)
    return statistics.median(times)
