"""Discrete-event simulation kernel.

This subpackage is the substrate for the whole GPU-TN reproduction: a
deterministic, integer-nanosecond, generator-coroutine discrete-event
simulator in the style of SimPy, built from scratch so the repository has
no dependencies beyond NumPy.

Public surface:

* :class:`~repro.sim.engine.Simulator` -- the event loop.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout` --
  primitive waitables; :class:`~repro.sim.engine.Timer` -- a re-armable
  callback that keeps one heap entry.
* :class:`~repro.sim.process.Process` -- a generator-based coroutine that
  yields waitables.
* :class:`~repro.sim.probes.Probes` -- the probe bus every simulator
  owns (``sim.probes``): one subscriber list per emitted topic.
* :mod:`~repro.sim.resources` -- FIFO stores, semaphore-style resources and
  counters used to model queues, cores and doorbell FIFOs.
* :mod:`~repro.sim.trace` -- structured timeline recording used by the
  latency-decomposition analysis (paper Figure 8).
* :mod:`~repro.sim.rng` -- named deterministic random streams.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    SpinWatch,
    Timeout,
    Timer,
    WatchedEvent,
)
from repro.sim.probes import Probes
from repro.sim.process import Process, ProcessKilled
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import RandomStreams
from repro.sim.trace import Span, TraceEvent, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Event",
    "Interrupt",
    "Probes",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Span",
    "SpinWatch",
    "Store",
    "Timeout",
    "Timer",
    "TraceEvent",
    "Tracer",
    "WatchedEvent",
]
