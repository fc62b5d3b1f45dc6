"""Unit tests for the network fabric (repro.net)."""

from collections import Counter

import pytest

from repro.config import NetworkConfig
from repro.net import (Fabric, FaultDecision, Message, StarTopology,
                       make_topology)
from repro.net.packet import MessageKind
from repro.net.topology import GraphTopology
from repro.sim import Simulator


def make_fabric(n=4, **net_kwargs):
    sim = Simulator()
    nodes = [f"n{i}" for i in range(n)]
    net = NetworkConfig(**net_kwargs)
    topo = StarTopology(nodes, net.link_latency_ns, net.switch_latency_ns)
    return sim, Fabric(sim, topo, net)


class TestMessage:
    def test_valid_message(self):
        m = Message(src="a", dst="b", nbytes=64)
        assert m.kind is MessageKind.PUT and m.msg_id > 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(src="a", dst="b", nbytes=-1)

    def test_payload_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Message(src="a", dst="b", nbytes=4, payload=b"toolong!")

    def test_self_message_rejected(self):
        with pytest.raises(ValueError):
            Message(src="a", dst="a", nbytes=4)

    def test_ids_unique(self):
        a = Message(src="a", dst="b", nbytes=0)
        b = Message(src="a", dst="b", nbytes=0)
        assert a.msg_id != b.msg_id


class TestStarTopology:
    def test_path_latency(self):
        topo = StarTopology(["a", "b"], link_latency_ns=100, switch_latency_ns=100)
        assert topo.path_latency_ns("a", "b") == 300
        assert topo.path_latency_ns("a", "a") == 0

    def test_unknown_node_rejected(self):
        topo = StarTopology(["a", "b"])
        with pytest.raises(KeyError):
            topo.path_latency_ns("a", "zz")

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            StarTopology(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StarTopology([])

    def test_hop_count(self):
        topo = StarTopology(["a", "b"])
        assert topo.hop_count("a", "b") == 1
        assert topo.hop_count("b", "b") == 0


class TestGraphTopology:
    def test_two_switch_path(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edges_from([("a", "s1"), ("s1", "s2"), ("s2", "b")])
        topo = GraphTopology(g, ["a", "b"], link_latency_ns=100, switch_latency_ns=100)
        # 3 links + 2 switches.
        assert topo.path_latency_ns("a", "b") == 500
        assert topo.hop_count("a", "b") == 2

    def test_edge_latency_attribute(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "s", latency_ns=10)
        g.add_edge("s", "b", latency_ns=20)
        topo = GraphTopology(g, ["a", "b"], switch_latency_ns=5)
        assert topo.path_latency_ns("a", "b") == 35

    def test_missing_endpoint_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "s")
        with pytest.raises(ValueError):
            GraphTopology(g, ["a", "zzz"])


class TestFabricLatency:
    def test_uncontended_latency_formula(self):
        """Table 2 numbers: 64B message = ser(64) + 2*100 + 100."""
        sim, fabric = make_fabric()
        ev = fabric.transmit(Message(src="n0", dst="n1", nbytes=64))
        delivered = sim.run_until_event(ev)
        expected = fabric.net.serialization_ns(64) + 300
        assert delivered.delivered_at == expected
        assert delivered.delivered_at == fabric.uncontended_latency_ns("n0", "n1", 64)

    def test_zero_byte_message(self):
        sim, fabric = make_fabric()
        ev = fabric.transmit(Message(src="n0", dst="n1", nbytes=0))
        assert sim.run_until_event(ev).delivered_at == 300

    def test_8mb_dominated_by_serialization(self):
        sim, fabric = make_fabric()
        n = 8 * 1024 * 1024
        ev = fabric.transmit(Message(src="n0", dst="n1", nbytes=n))
        delivered = sim.run_until_event(ev)
        # 8 MiB at 12.5 B/ns ~ 671 us >> 300 ns of latency.
        assert delivered.delivered_at == pytest.approx(n / 12.5 + 300, rel=1e-3)

    def test_rx_handler_invoked_at_delivery(self):
        sim, fabric = make_fabric()
        seen = []
        fabric.register_rx("n2", lambda d: seen.append((sim.now, d.message.msg_id)))
        msg = Message(src="n0", dst="n2", nbytes=128)
        ev = fabric.transmit(msg)
        sim.run()
        assert seen == [(ev.value.delivered_at, msg.msg_id)]

    def test_handler_not_called_for_other_nodes(self):
        sim, fabric = make_fabric()
        seen = []
        fabric.register_rx("n3", seen.append)
        fabric.transmit(Message(src="n0", dst="n1", nbytes=8))
        sim.run()
        assert seen == []


class TestFabricContention:
    def test_egress_serializes_same_source(self):
        """Two back-to-back sends from one node share the egress port."""
        sim, fabric = make_fabric()
        n = 12500  # 1000 ns of serialization each
        e1 = fabric.transmit(Message(src="n0", dst="n1", nbytes=n))
        e2 = fabric.transmit(Message(src="n0", dst="n2", nbytes=n))
        sim.run()
        assert e1.value.delivered_at == 1000 + 300
        assert e2.value.delivered_at == 2000 + 300

    def test_ingress_serializes_same_destination(self):
        sim, fabric = make_fabric()
        n = 12500
        e1 = fabric.transmit(Message(src="n0", dst="n3", nbytes=n))
        e2 = fabric.transmit(Message(src="n1", dst="n3", nbytes=n))
        sim.run()
        assert e1.value.delivered_at == 1300
        # Second message's head arrives at t=300 but the ingress port is
        # busy until 1300.
        assert e2.value.delivered_at == 2300

    def test_disjoint_pairs_do_not_contend(self):
        sim, fabric = make_fabric()
        n = 12500
        e1 = fabric.transmit(Message(src="n0", dst="n1", nbytes=n))
        e2 = fabric.transmit(Message(src="n2", dst="n3", nbytes=n))
        sim.run()
        assert e1.value.delivered_at == e2.value.delivered_at == 1300

    def test_in_order_delivery_same_pair(self):
        """A big message sent first must arrive before a small one sent later."""
        sim, fabric = make_fabric()
        big = fabric.transmit(Message(src="n0", dst="n1", nbytes=125000))
        small = fabric.transmit(Message(src="n0", dst="n1", nbytes=64))
        sim.run()
        assert big.value.delivered_at < small.value.delivered_at

    def test_unknown_node_rejected(self):
        sim, fabric = make_fabric()
        with pytest.raises(KeyError):
            fabric.transmit(Message(src="n0", dst="ghost", nbytes=8))

    def test_stats_accumulate(self):
        sim, fabric = make_fabric()
        fabric.transmit(Message(src="n0", dst="n1", nbytes=10))
        fabric.transmit(Message(src="n1", dst="n2", nbytes=20))
        sim.run()
        assert fabric.stats == {"messages": 2, "bytes": 30}


class TestBandwidthInvariant:
    def test_delivery_never_beats_line_rate(self):
        """Property: N bytes can never arrive faster than ser(N) + path."""
        sim, fabric = make_fabric(n=6)
        events = []
        sizes = [64, 1024, 4096, 65536, 1 << 20]
        for i, s in enumerate(sizes):
            src, dst = f"n{i % 3}", f"n{3 + i % 3}"
            events.append((s, src, dst, fabric.transmit(
                Message(src=src, dst=dst, nbytes=s))))
        sim.run()
        for s, src, dst, ev in events:
            assert ev.value.delivered_at >= fabric.uncontended_latency_ns(src, dst, s)


class _DropAll:
    """A fault interposer that loses every message."""

    def on_transmit(self, msg, now):
        return FaultDecision(drop=True)

    def adjust_delivery(self, node, t):  # pragma: no cover - never reached
        return t


def _counting_routes(topo):
    """Count ``topo.route`` calls per pair (an instance-level wrapper)."""
    calls = Counter()
    route = topo.route

    def counted(src, dst):
        calls[(src, dst)] += 1
        return route(src, dst)

    topo.route = counted
    return calls


class TestPairPlans:
    """The fabric plans each (src, dst) pair once, from its route."""

    def _fat_tree(self):
        net = NetworkConfig()
        topo = make_topology("fat-tree:k=4", 16, net.link_latency_ns,
                             net.switch_latency_ns)
        sim = Simulator()
        return sim, Fabric(sim, topo, net), topo

    def test_route_runs_once_per_pair(self):
        sim, fabric, topo = self._fat_tree()
        calls = _counting_routes(topo)
        pairs = [("node0", "node15"), ("node15", "node0"), ("node1", "node2")]
        for _ in range(5):
            for src, dst in pairs:
                fabric.transmit(Message(src=src, dst=dst, nbytes=512))
                topo.path_latency_ns(src, dst)
        sim.run()
        assert calls == Counter({pair: 1 for pair in pairs})
        assert fabric.stats["messages"] == 15

    def test_plans_crossing_a_port_share_it(self):
        sim, fabric, _ = self._fat_tree()
        # node0 and node1 sit on edge switch ftE0.0; both cross pod 0's
        # uplinks toward pod 3, and node15's edge port is common to both.
        fabric.transmit(Message(src="node0", dst="node15", nbytes=64))
        fabric.transmit(Message(src="node1", dst="node15", nbytes=64))
        last0 = fabric._plans["node0"]["node15"][0][-1][1]
        last1 = fabric._plans["node1"]["node15"][0][-1][1]
        assert last0 is last1 and last0.key == ("ftE3.1", "node15")

    @pytest.mark.parametrize("spec", ["star", "fat-tree:k=4"])
    @pytest.mark.parametrize("src,dst", [("ghost", "node1"), ("node0", "ghost")])
    def test_unknown_node_raises_naming_it(self, spec, src, dst):
        net = NetworkConfig()
        topo = make_topology(spec, 16, net.link_latency_ns,
                             net.switch_latency_ns)
        sim = Simulator()
        fabric = Fabric(sim, topo, net)
        with pytest.raises(KeyError, match="unknown node 'ghost'"):
            fabric.transmit(Message(src=src, dst=dst, nbytes=8))
        # Rejected before any port was reserved or counted.
        assert fabric.stats == {"messages": 0, "bytes": 0}
        assert all(p.busy_until == 0 for p in fabric._egress.values())

    def test_dropped_message_builds_no_plan(self):
        sim, fabric, topo = self._fat_tree()
        calls = _counting_routes(topo)
        fabric.install_interposer(_DropAll())
        assert fabric.transmit(Message(src="node0", dst="node9", nbytes=64)) is not None
        sim.run()
        assert fabric._plans["node0"] == {} and not calls
        assert fabric.stats["messages"] == 1

    def test_graph_edge_latencies_fold_into_the_plan(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "s1", latency_ns=10)
        g.add_edge("s1", "s2", latency_ns=250)
        g.add_edge("s2", "b", latency_ns=20)
        g.add_edge("c", "s2", latency_ns=40)
        topo = GraphTopology(g, ["a", "b", "c"], switch_latency_ns=5)
        sim = Simulator()
        fabric = Fabric(sim, topo, NetworkConfig())
        ser = fabric.net.serialization_ns(1000)
        per_hop = {("a", "b"): 10 + 250 + 20 + 2 * 5,
                   ("b", "a"): 20 + 250 + 10 + 2 * 5,
                   ("c", "a"): 40 + 250 + 10 + 2 * 5,
                   ("b", "c"): 20 + 40 + 5}
        for pair, latency in per_hop.items():  # one at a time: no contention
            ev = fabric.transmit(Message(src=pair[0], dst=pair[1], nbytes=1000))
            sim.run()
            assert ev.value.delivered_at - ev.value.sent_at == ser + latency, pair
            assert latency == topo.path_latency_ns(*pair)
