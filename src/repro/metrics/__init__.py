"""Metrics and profiling observability (``repro stats``).

The paper's headline claims are where-does-the-time-go arguments (Fig 8's
2.71/3.76/4.21 us path decomposition, Fig 9/10 scaling); this package is
the queryable-counter side of that story, next to the Perfetto trace
export:

* :mod:`~repro.metrics.registry` -- simulation-time-aware Counter /
  Gauge / log2-bucketed Histogram / decimating TimeSeries primitives,
  gathered by a get-or-create :class:`MetricsRegistry`;
* :mod:`~repro.metrics.instrument` -- :func:`attach_metrics` wires a
  registry into a cluster through the simulator's probe bus
  (:mod:`repro.sim.probes`): GPU CU occupancy and kernel
  launch/teardown histograms, NIC doorbell-FIFO depth and trigger-list
  size, per-link bytes/occupancy, transport retransmit counters and
  per-message initiation-to-delivery latency histograms.

Zero overhead when disabled: nothing in the hardware models references a
registry; an unattached run leaves every probe topic empty (DESIGN.md §9).
"""

from repro.metrics.instrument import attach_metrics
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "attach_metrics",
]
