#!/usr/bin/env python
"""Open vs. closed system models — another assumption that matters.

The paper's theme is that modeling assumptions drive conclusions. One
assumption it holds fixed is the *source model*: a closed system (200
terminals that wait for their transaction before thinking up the next
one). Many other studies used open models (Poisson arrivals). The two
behave very differently near saturation: a closed system self-throttles
(arrivals slow down as response times grow), while an open system
builds an unbounded backlog the moment offered load exceeds capacity.

This example runs the same database/CC configuration both ways:
* closed: Table 2's population of 200 terminals;
* open: a sweep of arrival rates through the capacity found above.

Run:  python examples/open_vs_closed.py
"""

from repro import RunConfig, SimulationParameters, run_simulation
from repro.core import SystemModel

RUN = RunConfig(batches=5, batch_time=20.0, warmup_batches=1, seed=17)


def main():
    closed = SimulationParameters.table2(mpl=25)
    closed_result = run_simulation(closed, "blocking", RUN)
    capacity = closed_result.throughput
    print("Closed model (200 terminals, mpl=25, blocking):")
    print(f"  throughput {capacity:.2f} tps, "
          f"response {closed_result.response_time:.1f}s "
          f"(self-throttled: stable no matter what)")
    print()

    print("Open model (Poisson arrivals), same engine and parameters:")
    print(f"{'offered load':>14s}{'throughput':>12s}{'response':>10s}"
          f"{'backlog':>9s}")
    for fraction in (0.5, 0.8, 0.95, 1.2):
        rate = capacity * fraction
        params = closed.with_changes(
            workload_model="open_poisson", arrival_rate=rate
        )
        model = SystemModel(params, "blocking", seed=17)
        model.run_until(120.0)
        commits = model.metrics.commits.total
        throughput = commits / model.env.now
        response = model.metrics.response_times.mean
        backlog = len(model.ready_queue)
        print(f"{rate:11.2f}tps{throughput:9.2f}tps{response:9.1f}s"
              f"{backlog:9d}")
    print()
    print("Below capacity the open system matches its offered load; at")
    print("120% of capacity the backlog explodes — a failure mode the")
    print("closed model structurally cannot exhibit. Model choice is a")
    print("claim about the workload, exactly the paper's point.")


if __name__ == "__main__":
    main()
