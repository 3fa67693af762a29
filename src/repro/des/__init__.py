"""A small, fast, generator-based discrete-event simulation kernel.

Written from scratch for this reproduction (no SimPy dependency). The
programming model follows the classic process-interaction style:

>>> from repro.des import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, period):
...     while env.now < 2:
...         log.append((name, env.now))
...         yield env.timeout(period)
>>> _ = env.process(clock(env, "fast", 0.5))
>>> _ = env.process(clock(env, "slow", 1.0))
>>> env.run(until=2)
>>> log[:3]
[('fast', 0.0), ('slow', 0.0), ('fast', 0.5)]
"""

from repro.des.environment import Environment
from repro.des.errors import EmptySchedule, Interrupt, SimulationError, StopSimulation
from repro.des.events import NORMAL, URGENT, Event, Timeout
from repro.des.monitor import BusyTracker, Counter, LevelMonitor
from repro.des.process import Process
from repro.des.resources import InfiniteResource, Resource, Service
from repro.des.rng import RandomStream, StreamFactory

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "InfiniteResource",
    "Service",
    "RandomStream",
    "StreamFactory",
    "Counter",
    "LevelMonitor",
    "BusyTracker",
    "Interrupt",
    "SimulationError",
    "EmptySchedule",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]
