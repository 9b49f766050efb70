"""Host speed, measured with a fixed kernel that shares no code with the
program under test.

On a shared host the same request can run 1.75x slower for tens of
seconds while a neighbour is busy; the program's code is not involved.
:func:`sample` times a small pure-Python kernel shaped like the
allocator's work (adjacency sets, greedy colouring, set intersections).
Wall times are scaled by ``REFERENCE_S / sample()``, i.e. reported in
seconds at the speed at which the kernel takes :data:`REFERENCE_S`.
The kernel runs with the garbage collector off, so a larger heap in the
program under test cannot slow the kernel and hide itself.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: The kernel's time on an unloaded 2-core x86-64 host (CPython 3.11).
REFERENCE_S = 0.015
#: Kernel runs per sample; the sample is their median.
REPS = 3


def kernel() -> int:
    rng = random.Random(7)
    n = 400
    adjacent = {v: set() for v in range(n)}
    for _ in range(3000):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adjacent[a].add(b)
            adjacent[b].add(a)
    total = 0
    for _ in range(3):
        colour = {}
        for v in sorted(adjacent, key=lambda v: -len(adjacent[v])):
            used = {colour[u] for u in adjacent[v] if u in colour}
            c = 0
            while c in used:
                c += 1
            colour[v] = c
        live = [frozenset(rng.sample(range(n), 20)) for _ in range(300)]
        total += max(colour.values()) + sum(
            len(a & b) for a, b in zip(live, live[1:])
        )
    return total


def sample() -> float:
    """Median seconds of :data:`REPS` kernel runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
