#!/usr/bin/env python
"""Watching individual transactions: lifecycle tracing.

Aggregate curves say *that* blocking thrashes; traces show *how*. This
example streams a deliberately overheated system (tiny database, high
mpl, dynamic 2PL) through a JsonlSink into memory, finds the
transaction that was restarted the most, and prints its full life
story — every submission, admission, block, deadlock restart and the
final commit.

Run:  python examples/trace_debugging.py
"""

import io
from collections import Counter

from repro import SimulationParameters, SystemModel
from repro.obs import JsonlSink, read_jsonl


def render(event):
    """One trace line as a fixed-width log entry."""
    fields = " ".join(
        f"{key}={value!r}" for key, value in event.items()
        if key not in ("time", "kind")
    )
    return f"[{event['time']:12.6f}] {event['kind']:10s} {fields}"


def main():
    params = SimulationParameters(
        db_size=40,
        min_size=2,
        max_size=6,
        write_prob=0.6,
        num_terms=15,
        mpl=12,
        ext_think_time=0.1,
        obj_io=0.010,
        obj_cpu=0.005,
        num_cpus=None,
        num_disks=None,
    )
    buffer = io.StringIO()
    with JsonlSink(buffer) as sink:
        model = SystemModel(params, "blocking", seed=11,
                            subscribers=(sink,))
        model.run_until(30.0)
    buffer.seek(0)
    events = read_jsonl(buffer)

    print(f"{model.metrics.commits.total} commits, "
          f"{model.metrics.restarts.total} restarts, "
          f"{model.metrics.blocks.total} blocks in 30 simulated seconds")
    print(f"trace: {len(events)} events "
          f"({dict(Counter(event['kind'] for event in events))})")
    print()

    restarts_by_tx = Counter(
        event["tx"] for event in events if event["kind"] == "restart"
    )
    victim_id, times = restarts_by_tx.most_common(1)[0]
    print(f"most-restarted transaction: #{victim_id} "
          f"({times} deadlock restarts). Its life:")
    life = [event for event in events if event.get("tx") == victim_id]
    for event in life:
        print(f"  {render(event)}")
    print()
    commit = next(
        (event for event in life if event["kind"] == "commit"), None
    )
    if commit is not None:
        print(f"...it finally committed after {commit['response']:.2f}s "
              f"(attempt {commit['attempt']}).")


if __name__ == "__main__":
    main()
