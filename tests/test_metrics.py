"""Tests for the repro.metrics observability layer.

Covers the registry primitives (log2 histogram bucketing, percentile
interpolation, time-series decimation), the attach_metrics hardware
instrumentation, the zero-overhead-when-disabled contract (records stay
byte-identical without a registry), the Perfetto counter-track export
and the cross-check between the metrics histograms and the degraded
study's exact percentiles.
"""

import json

import pytest

from repro.apps.degraded import DegradedExperiment
from repro.apps.microbench import MicrobenchExperiment
from repro.runtime import Observers
from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    attach_metrics,
)
from repro.runtime import chrome_trace
from repro.runtime.record import RunRecord
from repro.sim import Probes


# ---------------------------------------------------------------- primitives
class TestCounter:
    def test_counts(self):
        c = Counter("c")
        c.inc()
        c.inc(41)
        assert c.dump() == 42

    def test_decrease_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)


class TestGauge:
    def test_watermarks(self):
        g = Gauge("g")
        for v in (5, 2, 9, 4):
            g.set(v)
        assert g.dump() == {"value": 4, "min": 2, "max": 9, "updates": 4}

    def test_unset_dumps_none(self):
        assert Gauge("g").dump()["value"] is None


class TestHistogram:
    def test_bucket_bounds(self):
        assert Histogram.bucket_bounds(0) == (0, 0)
        assert Histogram.bucket_bounds(1) == (1, 1)
        assert Histogram.bucket_bounds(4) == (8, 15)

    @pytest.mark.parametrize("value,idx", [(0, 0), (1, 1), (2, 2), (3, 2),
                                           (4, 3), (7, 3), (8, 4), (1023, 10),
                                           (1024, 11)])
    def test_log2_bucketing(self, value, idx):
        h = Histogram("h")
        h.record(value)
        assert h.buckets[idx] == 1
        lo, hi = Histogram.bucket_bounds(idx)
        assert lo <= value <= hi

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Histogram("h").record(-1)

    def test_empty_percentile_is_none(self):
        assert Histogram("h").percentile(50) is None

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(0)
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    def test_single_value_percentiles_exact(self):
        h = Histogram("h")
        h.record(1000)
        # min/max clamping: one observation reports itself, not its
        # bucket edges [512, 1023].
        assert h.percentile(50) == h.percentile(99) == 1000

    def test_percentile_within_true_bucket(self):
        h = Histogram("h")
        values = [3, 3, 5, 17, 17, 17, 40, 900, 900, 5000]
        for v in values:
            h.record(v)
        for q in (50, 90, 99):
            est = h.percentile(q)
            rank = max(1, -(-int(q * len(values)) // 100))
            true = sorted(values)[rank - 1]
            lo, hi = Histogram.bucket_bounds(true.bit_length())
            assert lo <= est <= hi, (q, est, true)

    def test_dump_shape(self):
        h = Histogram("h")
        for v in (0, 1, 1, 6):
            h.record(v)
        doc = h.dump()
        assert doc["count"] == 4 and doc["sum"] == 8
        assert doc["min"] == 0 and doc["max"] == 6
        assert doc["buckets"] == {"0": 1, "1": 2, "7": 1}


class TestTimeSeries:
    def test_records_samples(self):
        ts = TimeSeries("t")
        ts.sample(10, 1)
        ts.sample(20, 5)
        assert ts.samples == [(10, 1), (20, 5)]
        assert ts.last == 5

    def test_decimation_bounds_memory(self):
        ts = TimeSeries("t", max_samples=16)
        for i in range(10_000):
            ts.sample(i, i)
        assert ts.observed == 10_000
        assert len(ts.samples) < 16
        assert ts.min == 0 and ts.max == 9_999
        # Kept samples stay in time order, thinned roughly uniformly:
        # consecutive gaps never differ by more than one doubling.
        times = [t for t, _ in ts.samples]
        assert times == sorted(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) <= 2 * min(gaps)

    def test_extremes_survive_decimation(self):
        ts = TimeSeries("t", max_samples=4)
        for i, v in enumerate([7, 1, 100, 3, 3, 3, 3, 3, 3]):
            ts.sample(i, v)
        assert ts.min == 1 and ts.max == 100

    def test_tiny_max_samples_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries("t", max_samples=1)


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("a") is reg.histogram("a")
        assert len(reg) == 2  # same name, different kinds coexist

    def test_empty_dump_is_empty(self):
        assert MetricsRegistry().dump() == {}

    def test_dump_sections(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(3)
        reg.histogram("h").record(4)
        reg.timeseries("s").sample(0, 1)
        doc = reg.dump()
        assert set(doc) == {"counters", "gauges", "histograms", "series"}
        assert doc["counters"] == {"c": 1}

    def test_dump_is_json_safe(self):
        reg = MetricsRegistry()
        reg.histogram("h").record(12)
        reg.timeseries("s", node="node0").sample(5, 2)
        record = RunRecord(experiment="x", params={}, config_fingerprint="f",
                           metrics={}, telemetry=reg.dump())
        again = RunRecord.from_json(record.to_json())
        assert again.telemetry == record.telemetry


# ------------------------------------------------------------- instrumentation
def _microbench(metrics=None):
    from repro.runtime import Observers

    observers = Observers(metrics=metrics) if metrics is not None else None
    return MicrobenchExperiment().execute({"strategy": "gputn"},
                                          observers=observers)


class TestAttachMetrics:
    def test_hardware_counters_populate(self):
        reg = MetricsRegistry()
        _microbench(metrics=reg)
        doc = reg.dump()
        counters = doc["counters"]
        assert counters["sim.events"] > 0
        assert counters["fabric.link.node0->node1.bytes"] == 64
        assert counters["node0.nic.trigger_registers"] == 1
        assert counters["node0.nic.trigger_fires"] == 1
        assert counters["node0.nic.deliveries"] == 1
        assert doc["histograms"]["nic.message_latency_ns"]["count"] == 1
        assert doc["histograms"]["gpu.kernel_launch_ns"]["count"] == 1
        assert doc["gauges"]["node0.gpu.cu_occupancy"]["max"] >= 1
        assert doc["series"]["node0.nic.trigger_fifo_depth"]["observed"] > 0

    def test_telemetry_lands_on_record(self):
        reg = MetricsRegistry()
        execution = _microbench(metrics=reg)
        assert execution.record.telemetry == json.loads(
            json.dumps(reg.dump()))
        assert "telemetry" in json.loads(execution.record.to_json())

    def test_disabled_run_is_byte_identical(self):
        """The zero-overhead contract: without a registry the record --
        golden fixtures included -- must not change by a byte."""
        plain = _microbench().record
        instrumented = _microbench(metrics=MetricsRegistry()).record
        plain_doc = json.loads(plain.to_json())
        inst_doc = json.loads(instrumented.to_json())
        assert "telemetry" not in plain_doc
        inst_doc.pop("telemetry")
        assert inst_doc == plain_doc

    def test_disabled_run_leaves_hooks_empty(self):
        execution = _microbench()
        cluster = execution.cluster
        assert cluster.metrics is None
        probes = cluster.sim.probes
        assert all(getattr(probes, topic) == [] for topic in Probes.__slots__)

    def test_double_attach_rejected(self):
        reg = MetricsRegistry()
        execution = _microbench(metrics=reg)
        with pytest.raises(RuntimeError, match="already has a metrics"):
            attach_metrics(execution.cluster, MetricsRegistry())

    def test_transport_counters_populate_under_loss(self):
        reg = MetricsRegistry()
        DegradedExperiment().execute(
            {"strategy": "gputn", "loss": 0.05, "messages": 32},
            observers=Observers(metrics=reg))
        counters = reg.dump()["counters"]
        assert counters["node0.transport.tx_data"] >= 32
        assert counters["node1.transport.accepts"] >= 1
        # 5% loss over 32+ transmissions: a retransmit round is certain
        # with this seed (pinned by the fault plan's deterministic rng).
        assert counters.get("node0.transport.retransmit_rounds", 0) >= 1


class TestDegradedAgreement:
    def test_histogram_percentiles_match_study(self):
        """The metrics histogram of app message latencies must agree with
        the study's exact numpy percentiles within log2-bucket rounding
        (a factor of two)."""
        reg = MetricsRegistry()
        execution = DegradedExperiment().execute(
            {"strategy": "gputn"}, observers=Observers(metrics=reg))
        m = execution.record.metrics
        hist = reg.dump()["histograms"]["app.message_latency_ns"]
        assert hist["count"] == m["delivered"] == 64
        assert hist["max"] == m["max_latency_ns"]
        for key, exact in (("p50", m["p50_latency_ns"]),
                           ("p99", m["p99_latency_ns"])):
            est = hist[key]
            assert exact / 2 <= est <= exact * 2, (key, est, exact)


# ------------------------------------------------------------ trace export
class TestCounterTracks:
    def test_series_become_counter_events(self):
        reg = MetricsRegistry()
        execution = MicrobenchExperiment().execute(
            {"strategy": "gputn"}, trace=True, observers=Observers(metrics=reg))
        doc = chrome_trace(execution.cluster.tracer, metrics=reg)
        events = doc["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "expected counter track events"
        names = {e["name"] for e in counters}
        assert "node0.nic.trigger_fifo_depth" in names
        for e in counters:
            assert set(e["args"]) == {"value"}
        # Node-tagged series share the node's pid with its spans.
        node_pids = {e["args"]["name"]: e["pid"] for e in events
                     if e.get("ph") == "M" and e["name"] == "process_name"}
        depth = next(e for e in counters
                     if e["name"] == "node0.nic.trigger_fifo_depth")
        assert depth["pid"] == node_pids["node0"]

    def test_nodeless_series_get_metrics_process(self):
        reg = MetricsRegistry()
        reg.timeseries("global.level").sample(10, 3)
        execution = _microbench()
        doc = chrome_trace(execution.cluster.tracer, metrics=reg)
        meta = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                if e.get("ph") == "M" and e["name"] == "process_name"}
        assert "metrics" in meta
        track = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert track[0]["pid"] == meta["metrics"]

    def test_no_metrics_trace_unchanged(self):
        execution = MicrobenchExperiment().execute({"strategy": "gputn"},
                                                   trace=True)
        bare = chrome_trace(execution.cluster.tracer)
        with_empty = chrome_trace(execution.cluster.tracer,
                                  metrics=MetricsRegistry())
        assert bare == with_empty
        assert not any(e["ph"] == "C" for e in bare["traceEvents"])
