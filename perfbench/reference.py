"""A fixed pure-Python kernel that calibrates the host's speed.

The benchmark runs on a shared host whose speed drifts, by up to about
2x, over minutes; no run is long enough for a minimum to escape a slow
phase. The kernel does the kind of work the simulator's event loop
does -- a heap of timed events resuming generators that update a dict
-- and uses nothing from the package, so no change to the package
changes its time. Timed right before and after each piece of a pass,
it turns the piece's seconds into a cost in kernel units, which the
drift moves far less than it moves seconds: on a deterministic explore
pass, ten 15 s windows spread 0.18 (IQR / median) in seconds and 0.02
in kernel units.
"""

import heapq
import random

#: Events one kernel call processes (about 9 ms on a 2-core x86 VM).
STEPS = 6000
PROCESSES = 64


def kernel(steps=STEPS):
    """One fixed run of the kernel; returns its state for the caller to keep."""
    rng = random.Random(12345)

    def process():
        total = 0.0
        while True:
            total += yield total

    processes = [process() for _ in range(PROCESSES)]
    for generator in processes:
        next(generator)
    queue = [(rng.expovariate(1.0), k, k) for k in range(PROCESSES)]
    heapq.heapify(queue)
    state = {}
    for eid in range(PROCESSES, PROCESSES + steps):
        now, _, k = heapq.heappop(queue)
        value = processes[k].send(now)
        state[k % 17] = state.get(k % 17, 0.0) + value
        heapq.heappush(queue, (now + rng.expovariate(1.0), eid, k))
    return state
