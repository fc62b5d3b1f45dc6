"""Cluster topologies.

The paper evaluates a star (single switch).  :class:`Topology` is the
general interface -- a path cost (propagation + switching latency) between
any two nodes -- and :class:`StarTopology` the concrete Table 2 instance.
Arbitrary graphs are supported through :class:`GraphTopology` (built on
``networkx``) for extension experiments; path latency adds per hop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["GraphTopology", "StarTopology", "Topology"]


class Topology:
    """Abstract cluster wiring: node names and inter-node path latency."""

    def __init__(self, nodes: Sequence[str]):
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node names in topology")
        if not nodes:
            raise ValueError("topology needs at least one node")
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self._index: Dict[str, int] = {n: i for i, n in enumerate(self.nodes)}

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise KeyError(f"unknown node {node!r}; topology has {list(self.nodes)}") from None

    def path_latency_ns(self, src: str, dst: str) -> int:
        """Head-of-message propagation latency src -> dst (excl. serialization)."""
        raise NotImplementedError

    def hop_count(self, src: str, dst: str) -> int:
        """Number of switch traversals on the path."""
        raise NotImplementedError

    def route(self, src: str, dst: str) -> Optional[List[str]]:
        """Vertex path ``[src, switch..., dst]`` for hop-by-hop fabric
        simulation, or ``None`` for endpoint-contention-only topologies
        (the star keeps the paper's exact timing model this way).  Routes
        must be deterministic: same pair, same path, every call -- the
        fabric asks once per pair and plans the pair from the answer."""
        return None

    def segment_latency_ns(self, u: str, v: str) -> int:
        """Propagation latency of the directed link ``u -> v`` on a routed
        path.  Only consulted when :meth:`route` returns a path."""
        raise NotImplementedError


class StarTopology(Topology):
    """All nodes hang off one switch (Table 2: 'Star (single switch)')."""

    def __init__(self, nodes: Sequence[str], link_latency_ns: int = 100,
                 switch_latency_ns: int = 100):
        super().__init__(nodes)
        if link_latency_ns < 0 or switch_latency_ns < 0:
            raise ValueError("latencies must be non-negative")
        self.link_latency_ns = link_latency_ns
        self.switch_latency_ns = switch_latency_ns

    def path_latency_ns(self, src: str, dst: str) -> int:
        self.index(src), self.index(dst)
        if src == dst:
            return 0
        return 2 * self.link_latency_ns + self.switch_latency_ns

    def hop_count(self, src: str, dst: str) -> int:
        self.index(src), self.index(dst)
        return 0 if src == dst else 1


class GraphTopology(Topology):
    """An arbitrary switch fabric described as a networkx graph.

    Node names are leaf endpoints; other graph vertices are switches.
    Edge attribute ``latency_ns`` (default ``link_latency_ns``) is the link
    propagation time; each intermediate vertex adds ``switch_latency_ns``.

    The graph is **copied and frozen at construction**: shortest paths are
    cached on first use, so later mutation of the caller's graph (or of
    ``self.graph``) could silently desynchronize the cache -- exactly the
    hazard link-flap fault injection would trip.  Outages are modeled by
    :mod:`repro.faults` on top of an immutable topology, never by editing
    edges.
    """

    def __init__(self, graph, endpoints: Sequence[str], link_latency_ns: int = 100,
                 switch_latency_ns: int = 100):
        import networkx as nx  # local import: optional for the core library

        super().__init__(endpoints)
        for n in endpoints:
            if n not in graph:
                raise ValueError(f"endpoint {n!r} missing from graph")
        # Private frozen copy: networkx raises on any add/remove attempt,
        # and the caller keeps ownership of (and may keep mutating) the
        # graph they passed in without affecting routing.
        self.graph = nx.freeze(graph.copy())
        self.link_latency_ns = link_latency_ns
        self.switch_latency_ns = switch_latency_ns
        self._paths: Dict[Tuple[str, str], List[str]] = {}
        self._nx = nx

    def _path(self, src: str, dst: str) -> List[str]:
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            path = self._nx.shortest_path(self.graph, src, dst)
            self._paths[key] = path
        return path

    def path_latency_ns(self, src: str, dst: str) -> int:
        self.index(src), self.index(dst)
        if src == dst:
            return 0
        path = self._path(src, dst)
        total = 0
        for a, b in zip(path, path[1:]):
            total += int(self.graph.edges[a, b].get("latency_ns", self.link_latency_ns))
        total += self.hop_count(src, dst) * self.switch_latency_ns
        return total

    def hop_count(self, src: str, dst: str) -> int:
        if src == dst:
            return 0
        return max(0, len(self._path(src, dst)) - 2)

    def route(self, src: str, dst: str) -> Optional[List[str]]:
        if src == dst:
            return None
        return self._path(src, dst)

    def segment_latency_ns(self, u: str, v: str) -> int:
        return int(self.graph.edges[u, v].get("latency_ns", self.link_latency_ns))
