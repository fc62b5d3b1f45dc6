"""Simulation-time-aware metrics primitives.

Everything here is driven by the *event clock*: samples carry the
simulator's integer-nanosecond timestamps handed in by the caller, and
nothing ever reads a wall clock -- a metrics dump is as deterministic as
the simulation that produced it, so records carrying one still compare
byte-for-byte across serial/parallel runs and cache round-trips.

Four primitive kinds cover the hardware models' needs:

* :class:`Counter` -- a monotone event/byte count;
* :class:`Gauge` -- a last-value-wins level with min/max watermarks;
* :class:`Histogram` -- fixed **log2 bucketing** (bucket ``i`` holds
  values in ``[2^(i-1), 2^i - 1]``; bucket 0 holds exactly 0), so any
  nanosecond latency fits in ~64 buckets with bounded relative error and
  O(1) recording.  Percentile estimates interpolate within a bucket and
  are therefore accurate to one bucket's width;
* :class:`TimeSeries` -- ``(time, value)`` samples with stride-doubling
  decimation, so unbounded runs keep a bounded, uniformly thinned trace
  (exported as Perfetto counter tracks).

A :class:`MetricsRegistry` is a get-or-create namespace over all four.
Hardware models never hold one: :mod:`repro.metrics.instrument`
subscribes registry updates to the simulator's probe bus, so an
unattached run executes zero metrics code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "TimeSeries"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (events, bytes, retries...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n

    def dump(self) -> int:
        return self.value


class Gauge:
    """A level that moves both ways, with min/max watermarks."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.updates = 0

    def set(self, value: Number) -> None:
        self.value = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.updates += 1

    def dump(self) -> Dict[str, Any]:
        return {"value": self.value, "min": self.min, "max": self.max,
                "updates": self.updates}


class Histogram:
    """Fixed log2-bucketed histogram of non-negative integers.

    ``record`` is O(1): the bucket index of ``v`` is ``v.bit_length()``,
    i.e. bucket 0 holds exactly 0 and bucket ``i >= 1`` holds
    ``[2^(i-1), 2^i - 1]``.  ``percentile`` interpolates linearly inside
    the bucket containing the requested rank, so its error is bounded by
    the bucket width (a factor of two in value).
    """

    __slots__ = ("name", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.buckets: List[int] = []
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: Number) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(
                f"histogram {self.name!r} takes non-negative values, got {value}")
        idx = value.bit_length()
        if idx >= len(self.buckets):
            self.buckets.extend([0] * (idx + 1 - len(self.buckets)))
        self.buckets[idx] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @staticmethod
    def bucket_bounds(idx: int) -> Tuple[int, int]:
        """Inclusive ``(lo, hi)`` value range of bucket ``idx``."""
        if idx == 0:
            return (0, 0)
        return (1 << (idx - 1), (1 << idx) - 1)

    def percentile(self, q: float) -> Optional[int]:
        """Estimated ``q``-th percentile (0 < q <= 100), or None if empty."""
        if not 0 < q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if self.count == 0:
            return None
        rank = max(1, -(-int(q * self.count) // 100))  # ceil(q/100 * count)
        seen = 0
        for idx, n in enumerate(self.buckets):
            if n == 0:
                continue
            if seen + n >= rank:
                lo, hi = self.bucket_bounds(idx)
                # Clamp to observed extremes so single-bucket histograms
                # report exact values, not bucket edges.
                lo = max(lo, self.min if self.min is not None else lo)
                hi = min(hi, self.max if self.max is not None else hi)
                frac = (rank - seen - 1) / n
                return int(lo + (hi - lo) * frac)
            seen += n
        return self.max  # pragma: no cover - rank <= count by construction

    def dump(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            # Sparse: bucket upper bound -> count, JSON-keyable.
            "buckets": {str(self.bucket_bounds(i)[1]): n
                        for i, n in enumerate(self.buckets) if n},
        }


class TimeSeries:
    """``(sim_time, value)`` samples with bounded memory.

    When ``max_samples`` is reached every other kept sample is dropped
    and the keep-stride doubles, so arbitrarily long runs retain a
    uniformly thinned series of at most ``max_samples`` points while the
    observation count stays exact.
    """

    __slots__ = ("name", "node", "samples", "max_samples", "observed",
                 "min", "max", "_stride", "_phase")

    def __init__(self, name: str, node: Optional[str] = None,
                 max_samples: int = 1024):
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.name = name
        #: Simulated node the series belongs to (Perfetto process mapping).
        self.node = node
        self.samples: List[Tuple[int, Number]] = []
        self.max_samples = max_samples
        self.observed = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self._stride = 1
        self._phase = 0

    def sample(self, time: int, value: Number) -> None:
        self.observed += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self._phase += 1
        if self._phase < self._stride:
            return
        self._phase = 0
        self.samples.append((int(time), value))
        if len(self.samples) >= self.max_samples:
            self.samples = self.samples[::2]
            self._stride *= 2

    @property
    def last(self) -> Optional[Number]:
        return self.samples[-1][1] if self.samples else None

    def dump(self) -> Dict[str, Any]:
        return {
            "observed": self.observed,
            "kept": len(self.samples),
            "min": self.min,
            "max": self.max,
            "last": self.last,
            "samples": [[t, v] for t, v in self.samples],
        }


class MetricsRegistry:
    """Get-or-create namespace of counters/gauges/histograms/series.

    Names are hierarchical by convention (``node0.nic.trigger_fifo_depth``,
    ``fabric.link.node0->node1.bytes``); :func:`repro.metrics.instrument.
    attach_metrics` populates them from the simulator's probe bus
    and :meth:`dump` renders everything as one JSON-safe document (the
    ``telemetry`` section of a :class:`~repro.runtime.record.RunRecord`).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    # ------------------------------------------------------------- factories
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._counters[name] = metric = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._gauges[name] = metric = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._histograms[name] = metric = Histogram(name)
        return metric

    def timeseries(self, name: str, node: Optional[str] = None,
                   max_samples: int = 1024) -> TimeSeries:
        metric = self._series.get(name)
        if metric is None:
            self._series[name] = metric = TimeSeries(name, node=node,
                                                     max_samples=max_samples)
        return metric

    # --------------------------------------------------------------- queries
    def series_list(self) -> List[TimeSeries]:
        """All time series, in name order (for Perfetto counter tracks)."""
        return [self._series[name] for name in sorted(self._series)]

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms) + len(self._series))

    def dump(self) -> Dict[str, Any]:
        """The full registry as a JSON-safe nested document.

        Keys are sorted so the document is deterministic; empty sections
        are omitted so an untouched registry dumps as ``{}`` (and a
        RunRecord built from one stays byte-identical to a metrics-less
        record).
        """
        doc: Dict[str, Any] = {}
        if self._counters:
            doc["counters"] = {k: self._counters[k].dump()
                               for k in sorted(self._counters)}
        if self._gauges:
            doc["gauges"] = {k: self._gauges[k].dump()
                             for k in sorted(self._gauges)}
        if self._histograms:
            doc["histograms"] = {k: self._histograms[k].dump()
                                 for k in sorted(self._histograms)}
        if self._series:
            doc["series"] = {k: self._series[k].dump()
                             for k in sorted(self._series)}
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)} "
                f"series={len(self._series)}>")
