"""Extension: clusters on multi-switch fabrics (GraphTopology and the
scale-out topology zoo).

The paper evaluates a single-switch star; the fabric layer generalizes to
arbitrary switch graphs, and GPU-TN's semantics are topology-agnostic.
These tests run the microbench protocol across a two-switch fabric, and
regression-test the reliable transport's multi-hop behavior: the go-back-N
retransmit timer is floored at 2x the path RTT (a sub-RTT configured
timeout on a long path must not cause spurious whole-window resends), and
loss recovery / per-pair FIFO hold on hop-contended fabrics.  With switch
queues armed, each output port draws RED from its own stream.
"""

import networkx as nx
import numpy as np
import pytest

from repro.cluster import Cluster
from repro.config import (KB, FaultConfig, NetworkConfig, QueueConfig,
                          ReliabilityConfig, default_config)
from repro.faults import FaultPlan
from repro.memory import AddressSpace, ScopedMemoryModel
from repro.net import Fabric, Message, make_topology
from repro.net.topology import GraphTopology, StarTopology
from repro.nic import Nic
from repro.sim import Simulator, Tracer
from repro.sim.rng import RandomStreams

from conftest import NicTestbed


def build_topo_testbed(spec: str, n_nodes: int) -> NicTestbed:
    """conftest's NIC testbed, but on a multi-switch topology."""
    config = default_config()
    sim = Simulator()
    tracer = Tracer()
    topo = make_topology(spec, n_nodes, config.network.link_latency_ns,
                         config.network.switch_latency_ns)
    nodes = list(topo.nodes)
    fabric = Fabric(sim, topo, config.network, tracer=tracer)
    spaces = {n: AddressSpace(n) for n in nodes}
    mems = {n: ScopedMemoryModel() for n in nodes}
    nics = {n: Nic(sim, n, spaces[n], mems[n], fabric, config, tracer=tracer)
            for n in nodes}
    return NicTestbed(sim, config, tracer, fabric, spaces, mems, nics, nodes)


def two_switch_topology(n_nodes=4):
    """node0,node1 on switch s0; node2,node3 on s1; s0--s1 trunk."""
    g = nx.Graph()
    names = [f"node{i}" for i in range(n_nodes)]
    for i, n in enumerate(names):
        g.add_edge(n, f"s{i * 2 // n_nodes}")
    g.add_edge("s0", "s1")
    return GraphTopology(g, names)


class TestGraphTopologyCluster:
    def test_cluster_accepts_custom_topology(self):
        topo = two_switch_topology()
        cluster = Cluster(n_nodes=4, topology=topo)
        assert cluster.topology is topo

    def test_mismatched_topology_rejected(self):
        topo = StarTopology(["a", "b"])
        with pytest.raises(ValueError, match="node0"):
            Cluster(n_nodes=2, topology=topo)

    def test_same_switch_vs_cross_switch_latency(self):
        """An extra switch + link adds exactly one hop of latency."""
        cluster = Cluster(n_nodes=4, topology=two_switch_topology())
        same = cluster.fabric.uncontended_latency_ns("node0", "node1", 64)
        cross = cluster.fabric.uncontended_latency_ns("node0", "node2", 64)
        net = cluster.config.network
        assert cross - same == net.link_latency_ns + net.switch_latency_ns

    def test_gputn_put_across_switches(self):
        """The full GPU-TN path works unchanged over multiple switches."""
        from repro.api import GpuTnEndpoint, work_group_kernel

        cluster = Cluster(n_nodes=4, topology=two_switch_topology())
        ep = GpuTnEndpoint(cluster.node("node0"))
        target = cluster.node("node3")
        send = cluster.node("node0").host.alloc(128)
        recv = target.host.alloc(128)

        def driver():
            op = yield from ep.trig_put(send, 128, "node3", recv.addr(),
                                        tag=0x77)
            yield from ep.launch(work_group_kernel, n_workgroups=1,
                                 tag_base=0x77, buffers=[send], fill=0x3C)
            delivered = yield ep.wait_delivered(op)
            return delivered.delivered_at

        t = cluster.sim.run_until_event(cluster.spawn(driver()))
        assert (recv.view(np.uint8) == 0x3C).all()
        assert cluster.total_hazards() == 0
        # Must include the two-switch path latency (3 links + 2 switches).
        assert t >= 3 * 100 + 2 * 100

    def test_allreduce_on_two_switch_fabric(self):
        """The ring Allreduce is fabric-agnostic: correct across switches
        on every backend.  The experiment builds its own cluster from a
        topology spec string, so the executors run over a custom cluster
        instead."""
        from repro.cluster import Cluster as C
        from repro.collectives import ring_allreduce_schedule, schedule_reference
        from repro.collectives.engine import _ZOO_EXECUTORS, _ZooRank

        schedules = [ring_allreduce_schedule(r, 4) for r in range(4)]
        for strategy, executor in sorted(_ZOO_EXECUTORS.items()):
            cluster = C(n_nodes=4, config=default_config(),
                        topology=two_switch_topology(), trace=False)
            states = [_ZooRank(cluster[r], schedules[r], 64 * 1024, seed=2)
                      for r in range(4)]
            initial = [s.vector.view(np.float32).copy() for s in states]
            procs = [cluster.spawn(executor(states[r], states))
                     for r in range(4)]
            cluster.run()
            assert all(p.ok for p in procs), strategy
            assert cluster.total_hazards() == 0, strategy
            expected = schedule_reference(schedules, initial)
            for s, exp in zip(states, expected):
                assert (s.vector.view(np.float32) == exp).all(), strategy


class TestMultiHopTransport:
    """Go-back-N over long paths: the single-hop assumptions audited out of
    the transport (PR 7) stay fixed."""

    def _stream(self, tb, src, dst, count, nbytes=4096):
        src_buf = tb.alloc_registered(src, nbytes, "src")
        handles, bufs = [], []
        for i in range(count):
            dst_buf = tb.alloc_registered(dst, nbytes, f"dst{i}")
            src_buf.view(np.uint8)[:] = (i + 1) & 0xFF
            handles.append(tb.nics[src].post_put(src_buf.addr(), nbytes, dst,
                                                 dst_buf.addr()))
            tb.sim.run_until_event(handles[-1].delivered)
            bufs.append(dst_buf)
        tb.sim.run()
        return handles, bufs

    def test_sub_rtt_timeout_causes_no_spurious_retransmits(self):
        """Regression: a configured RTO below the multi-hop path RTT used
        to fire mid-flight and resend the whole delivered window.  The
        transport now floors the timer at 2x path RTT."""
        tb = build_topo_testbed("torus:3x3", 9)
        src, dst = "node0", "node4"  # 3 hops each way on the 3x3 torus
        rtt = (tb.fabric.net.serialization_ns(4096)
               + tb.fabric.topology.path_latency_ns(src, dst))
        timeout = ReliabilityConfig(retransmit_timeout_ns=max(1, rtt // 4))
        for nic in tb.nics.values():
            nic.enable_reliability(timeout)
        handles, bufs = self._stream(tb, src, dst, 8)
        stats = tb.nics[src].transport.stats
        assert stats["timeouts"] == 0 and stats["retransmits"] == 0
        assert stats["acks_rx"] == 8
        assert all(h.delivered.ok for h in handles)
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()

    def test_loss_recovery_on_fat_tree(self):
        """Drops on a 5-hop cross-pod path recover through go-back-N with
        the RTO floor active."""
        tb = build_topo_testbed("fat-tree:k=4", 16)
        src, dst = "node0", "node15"  # cross-pod: edge-agg-core-agg-edge
        assert tb.fabric.topology.hop_count(src, dst) == 5
        for nic in tb.nics.values():
            nic.enable_reliability(
                ReliabilityConfig(retransmit_timeout_ns=100, max_retries=8))
        plan = FaultPlan(FaultConfig(drop_prob=0.3), rng=7).attach(tb.fabric)
        _, bufs = self._stream(tb, src, dst, 12)
        assert plan.counters().get("drops", 0) > 0
        assert tb.nics[src].transport.stats["retransmits"] > 0
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()

    def test_per_pair_fifo_under_shared_uplink_contention(self):
        """node0 and node1 share the ftE0.0 uplink; interleaved windows
        from both must still be accepted in per-pair order at two
        different destinations behind the same core path."""
        tb = build_topo_testbed("fat-tree:k=4", 16)
        for nic in tb.nics.values():
            nic.enable_reliability(ReliabilityConfig(window=4))
        accepts = {"node4": [], "node6": []}
        tb.sim.probes.transport.append(
            lambda node, kind, peer, seq, now: kind == "accept"
            and node in accepts and accepts[node].append(seq))
        handles = []
        for src, dst in (("node0", "node4"), ("node1", "node6")):
            buf = tb.alloc_registered(src, 4096, f"{src}.src")
            for i in range(6):
                out = tb.alloc_registered(dst, 4096, f"{src}.dst{i}")
                handles.append(tb.nics[src].post_put(buf.addr(), 4096, dst,
                                                     out.addr()))
        tb.sim.run()
        assert all(h.delivered.ok for h in handles)
        assert accepts["node4"] == list(range(6))
        assert accepts["node6"] == list(range(6))
        # No spurious recovery traffic despite shared-port queueing: the
        # RTO floor covers contention-free RTT, and queueing never exceeds
        # it in this 2-flow scenario.
        assert tb.nics["node0"].transport.stats["retransmits"] == 0


class TestPortQueueStreams:
    """RED draws come from each switch port's own named stream, so the
    order in which ports are first used does not change any verdict."""

    @staticmethod
    def _run(order):
        # Two disjoint incasts: a1, a2 -> A through s1; b1, b2 -> B
        # through s2.  Each switch's port toward its sink backs up.
        g = nx.Graph()
        for sw, group in (("s1", ("a1", "a2", "A")), ("s2", ("b1", "b2", "B"))):
            for node in group:
                g.add_edge(node, sw)
        topo = GraphTopology(g, ["a1", "a2", "A", "b1", "b2", "B"])
        sim = Simulator()
        fabric = Fabric(sim, topo, NetworkConfig())
        queues = fabric.enable_queues(
            QueueConfig(discipline="red", capacity_bytes=64 * KB,
                        red_min_bytes=2 * KB, red_max_bytes=48 * KB,
                        red_max_prob=0.6),
            RandomStreams(7))
        incasts = {"a": (("a1", "A"), ("a2", "A")),
                   "b": (("b1", "B"), ("b2", "B"))}
        events = {}
        for group in order:
            for i in range(24):
                for src, dst in incasts[group]:
                    events[(src, i)] = fabric.transmit(
                        Message(src=src, dst=dst, nbytes=2 * KB))
        sim.run()
        outcome = {key: ev.value.delivered_at if ev.triggered else None
                   for key, ev in events.items()}
        ports = fabric._switch_ports
        drew = [ports[("s1", "A")].rng is not None,
                ports[("s2", "B")].rng is not None]
        return dict(queues.stats), outcome, drew

    def test_counters_do_not_depend_on_first_use_order(self):
        stats_ab, outcome_ab, drew = self._run("ab")
        stats_ba, outcome_ba, _ = self._run("ba")
        assert drew == [True, True]
        assert stats_ab["dropped"] > 0 and stats_ab["enqueued"] > 0
        assert stats_ab == stats_ba
        assert outcome_ab == outcome_ba
