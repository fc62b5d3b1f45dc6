"""The probe bus (``sim.probes``): one subscription covers every node and
every component armed after it, and with nothing subscribed no emission
site iterates its topic."""

import pytest

from repro.apps.congestion import CongestionExperiment
from repro.apps.microbench import MicrobenchExperiment
from repro.cluster import Cluster
from repro.collectives import AllreduceExperiment
from repro.config import QueueConfig, default_config
from repro.metrics import MetricsRegistry, attach_metrics
from repro.net import make_topology
from repro.runtime import Observers
from repro.sim import Probes
from repro.validate import ReliableDeliveryMonitor


def _fat_tree_cluster(n_nodes=4):
    net = default_config().network
    return Cluster(n_nodes, topology=make_topology(
        "fat-tree:k=4", n_nodes, net.link_latency_ns, net.switch_latency_ns))


def _reliable_puts(cluster, pairs, nbytes=256):
    """One put per ``(src, dst)`` node-index pair; runs to completion."""
    handles = []
    for src, dst in pairs:
        send = cluster[src].host.alloc(nbytes, name=f"send{src}->{dst}")
        recv = cluster[dst].host.alloc(nbytes, name=f"recv{src}->{dst}")
        handles.append(cluster[src].nic.post_put(
            send.addr(), nbytes, f"node{dst}", recv.addr()))
    cluster.run()
    assert all(h.delivered.triggered for h in handles)


class TestSubscribeBeforeArming:
    def test_transports_and_queues_armed_later_are_observed(self):
        cluster = _fat_tree_cluster()
        registry = attach_metrics(cluster, MetricsRegistry())
        monitor = ReliableDeliveryMonitor()
        monitor.attach(cluster)
        cluster.enable_reliability()
        cluster.enable_queues(QueueConfig(discipline="drop-tail"))
        _reliable_puts(cluster, [(0, 3), (0, 3), (2, 1)])
        monitor.finalize()
        assert monitor._sent == {("node0", "node3"): 1, ("node2", "node1"): 0}
        assert monitor._accepted == monitor._sent
        counters = registry.dump()["counters"]
        assert counters["node0.transport.tx_data"] == 2
        assert counters["node3.transport.accepts"] == 2
        assert counters["node2.transport.tx_data"] == 1
        assert registry.dump()["histograms"]["queue.depth_bytes"]["count"] > 0


class TestQueueTelemetry:
    def test_loaded_congestion_point_publishes_queue_depths(self):
        record = CongestionExperiment().run(
            {"load": 0.8, "discipline": "red-ecn", "messages": 8},
            observers=Observers(metrics=True))
        telemetry = record.telemetry
        ports = [name for name in telemetry["series"]
                 if name.startswith("queue.") and name.endswith(".depth_bytes")]
        assert ports and all("->" in name for name in ports)
        assert telemetry["series"][ports[0]]["observed"] > 0
        assert telemetry["gauges"][ports[0]]["updates"] > 0
        assert telemetry["histograms"]["queue.depth_bytes"]["count"] > 0


class _Watched(list):
    """A topic that records every time an emission site loops over it
    while it is empty instead of testing it first.  (Raising there would
    not do: some sites run under handlers that turn an error into a
    stalled model.)"""

    def __init__(self, topic, misses):
        super().__init__()
        self.topic, self.misses = topic, misses

    def __iter__(self):
        if not self:
            self.misses.append(self.topic)
        return super().__iter__()


@pytest.fixture
def misses(monkeypatch):
    """Topics iterated while empty, across every simulator built."""
    found = []

    def init(self):
        for topic in Probes.__slots__:
            setattr(self, topic, _Watched(topic, found))

    monkeypatch.setattr(Probes, "__init__", init)
    yield found
    assert found == []


class TestNothingSubscribedEmitsNothing:
    def test_gputn_microbench(self, misses):
        assert MicrobenchExperiment().run({"strategy": "gputn"}).metrics

    def test_fig10_point(self, misses):
        record = AllreduceExperiment().run(
            {"strategy": "gputn", "n_nodes": 4, "nbytes": 1 << 20})
        assert record.metrics["correct"]

    def test_reliable_put_on_bare_cluster(self, misses):
        cluster = Cluster(2)
        cluster.enable_reliability()
        _reliable_puts(cluster, [(0, 1)])

    def test_loaded_congestion_point(self, misses):
        # The study's own monitors subscribe to ``transmit`` and
        # ``transport``; every other topic stays empty.
        record = CongestionExperiment().run(
            {"load": 0.8, "discipline": "red-ecn", "messages": 8})
        assert record.metrics["delivered"] == 8
