"""Datacenter-scale switch fabrics: fat-tree, dragonfly, torus.

The paper evaluates a star; scale-out studies need real topologies.  Each
class here names its hosts ``node0..nodeN-1`` (what :class:`repro.cluster.
Cluster` expects), computes a *deterministic* route -- a vertex path
``[src, switch..., dst]`` -- for every host pair, and derives path latency
and hop count from that route.  The :class:`repro.net.fabric.Fabric`
consumes the route for hop-by-hop output-port contention; the closed-form
uncontended latency stays ``ser(n) + links*link_lat + switches*switch_lat``.

Routing disciplines (all minimal, all provably deadlock-free):

* **fat-tree** -- up/down (valley-free) routing: up to the lowest common
  ancestor tier, then down.  The up-path switch choice hashes on the
  destination host index (deterministic ECMP), so a pair always uses the
  same core.
* **dragonfly** -- minimal ``l-g-l`` routing: at most one local hop to the
  router holding the global link, one global hop, one local hop to the
  destination router.
* **torus** -- dimension-order routing, shortest wrap direction per
  dimension (ties break toward +1), which is the classic deadlock-free
  e-cube discipline.

``make_topology`` parses the ``NetworkConfig.topology`` spec string
(``"star"``, ``"fat-tree:k=4"``, ``"torus:4x4"``, ``"dragonfly:a=4,g=9"``)
so topology choice rides in existing config -- no new fingerprint fields.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.topology import StarTopology, Topology

__all__ = [
    "DragonflyTopology",
    "FatTreeTopology",
    "SwitchFabricTopology",
    "TorusTopology",
    "make_topology",
]


class SwitchFabricTopology(Topology):
    """Base for explicitly-routed multi-switch fabrics.

    Subclasses implement :meth:`_route` returning the vertex path for a
    distinct host pair; latency and hop count derive from it.  Routes and
    path latencies are cached -- topologies are immutable, so a pair's
    path never changes (determinism is also a property-tested invariant).
    """

    def __init__(self, nodes: Sequence[str], link_latency_ns: int = 100,
                 switch_latency_ns: int = 100):
        super().__init__(nodes)
        if link_latency_ns < 0 or switch_latency_ns < 0:
            raise ValueError("latencies must be non-negative")
        self.link_latency_ns = link_latency_ns
        self.switch_latency_ns = switch_latency_ns
        self._routes: Dict[Tuple[str, str], List[str]] = {}
        self._latencies: Dict[Tuple[str, str], int] = {}

    # -- subclass contract -------------------------------------------------
    def _route(self, src: str, dst: str) -> List[str]:
        raise NotImplementedError

    def diameter_hops(self) -> int:
        """Closed-form worst-case switch count over all host pairs."""
        raise NotImplementedError

    # -- Topology interface ------------------------------------------------
    def route(self, src: str, dst: str) -> Optional[List[str]]:
        if src == dst:
            return None
        return self._path(src, dst)

    def _path(self, src: str, dst: str) -> List[str]:
        """The cached route of a distinct pair.  Latency and hop count
        read it here, so ``route`` runs only for its own callers (the
        fabric asks once per pair when it plans the pair)."""
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            self.index(src), self.index(dst)
            path = self._route(src, dst)
            if path[0] != src or path[-1] != dst or len(path) < 3:
                raise AssertionError(f"malformed route {path} for {src}->{dst}")
            self._routes[key] = path
        return path

    def segment_latency_ns(self, u: str, v: str) -> int:
        return self.link_latency_ns

    def path_latency_ns(self, src: str, dst: str) -> int:
        total = self._latencies.get((src, dst))
        if total is not None:
            return total
        if src == dst:
            self.index(src)
            return 0
        path = self._path(src, dst)
        total = (len(path) - 2) * self.switch_latency_ns
        for a, b in zip(path, path[1:]):
            total += self.segment_latency_ns(a, b)
        self._latencies[(src, dst)] = total
        return total

    def hop_count(self, src: str, dst: str) -> int:
        if src == dst:
            self.index(src)
            return 0
        return len(self._path(src, dst)) - 2


class FatTreeTopology(SwitchFabricTopology):
    """k-ary fat-tree (Al-Fares et al.): k pods of k/2 edge + k/2 agg
    switches, (k/2)^2 cores, up to k^3/4 hosts.  ``n_nodes`` may be less
    than capacity; hosts fill edge switches in order."""

    def __init__(self, n_nodes: int, k: Optional[int] = None,
                 link_latency_ns: int = 100, switch_latency_ns: int = 100):
        if n_nodes < 1:
            raise ValueError("fat-tree needs >=1 host")
        if k is None:
            k = 2
            while k ** 3 // 4 < n_nodes:
                k += 2
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree arity k must be even and >=2, got {k}")
        if k ** 3 // 4 < n_nodes:
            raise ValueError(f"k={k} fat-tree holds {k ** 3 // 4} hosts, "
                             f"need {n_nodes}")
        self.k = k
        self.half = k // 2
        self.hosts_per_pod = self.half * self.half
        super().__init__([f"node{i}" for i in range(n_nodes)],
                         link_latency_ns, switch_latency_ns)

    # host i lives in pod i // (k/2)^2 on edge switch (i % (k/2)^2) // (k/2)
    def _locate(self, host: str) -> Tuple[int, int, int]:
        i = self.index(host)
        pod, j = divmod(i, self.hosts_per_pod)
        edge, port = divmod(j, self.half)
        return pod, edge, port

    @staticmethod
    def _edge(pod: int, e: int) -> str:
        return f"ftE{pod}.{e}"

    @staticmethod
    def _agg(pod: int, a: int) -> str:
        return f"ftA{pod}.{a}"

    @staticmethod
    def _core(c: int) -> str:
        return f"ftC{c}"

    def _route(self, src: str, dst: str) -> List[str]:
        sp, se, _ = self._locate(src)
        dp, de, dport = self._locate(dst)
        if (sp, se) == (dp, de):
            return [src, self._edge(sp, se), dst]
        # Deterministic ECMP: hash the up-path on the destination host's
        # in-pod position so every (src, dst) pair pins one agg/core.
        a = dport % self.half
        if sp == dp:
            return [src, self._edge(sp, se), self._agg(sp, a),
                    self._edge(dp, de), dst]
        c = a * self.half + de % self.half
        return [src, self._edge(sp, se), self._agg(sp, a), self._core(c),
                self._agg(dp, a), self._edge(dp, de), dst]

    def diameter_hops(self) -> int:
        n = len(self.nodes)
        if n <= self.half:
            return 1  # all hosts share one edge switch
        if n <= self.hosts_per_pod:
            return 3  # one pod: edge-agg-edge
        return 5      # cross-pod: edge-agg-core-agg-edge


class DragonflyTopology(SwitchFabricTopology):
    """Dragonfly (Kim et al.): ``g`` groups of ``a`` fully-meshed routers,
    ``p`` hosts per router, all-to-all global links between groups.  The
    global link for group pair (g1, g2) hangs off router
    ``((g2 - g1 - 1) mod g) mod a`` in g1 (and symmetrically in g2), which
    distributes the g-1 global links round-robin over a group's routers."""

    def __init__(self, n_nodes: int, a: Optional[int] = None,
                 g: Optional[int] = None, p: Optional[int] = None,
                 link_latency_ns: int = 100, switch_latency_ns: int = 100,
                 global_latency_ns: Optional[int] = None):
        if n_nodes < 1:
            raise ValueError("dragonfly needs >=1 host")
        if a is None and g is None and p is None:
            # Balanced-ish auto-sizing: p = a, g = a + 1 (one global link
            # per router); smallest a whose a*a*(a+1) capacity fits.
            a = 1
            while a * a * (a + 1) < n_nodes:
                a += 1
            p, g = a, a + 1
        a = a or 4
        g = g or (a + 1)
        p = p or a
        if a < 1 or g < 1 or p < 1:
            raise ValueError("dragonfly a/g/p must all be >=1")
        if g > 1 and a < 1:
            raise ValueError("multi-group dragonfly needs >=1 router/group")
        if a * g * p < n_nodes:
            raise ValueError(f"dragonfly(a={a}, g={g}, p={p}) holds "
                             f"{a * g * p} hosts, need {n_nodes}")
        self.a, self.g, self.p = a, g, p
        self.global_latency_ns = (global_latency_ns if global_latency_ns
                                  is not None else link_latency_ns)
        super().__init__([f"node{i}" for i in range(n_nodes)],
                         link_latency_ns, switch_latency_ns)

    def _locate(self, host: str) -> Tuple[int, int]:
        i = self.index(host)
        grp, rem = divmod(i, self.a * self.p)
        return grp, rem // self.p

    @staticmethod
    def _router(grp: int, r: int) -> str:
        return f"dfR{grp}.{r}"

    def _gateway(self, src_grp: int, dst_grp: int) -> int:
        """Router index in ``src_grp`` owning the global link to ``dst_grp``."""
        return ((dst_grp - src_grp - 1) % self.g) % self.a

    def _route(self, src: str, dst: str) -> List[str]:
        sg, sr = self._locate(src)
        dg, dr = self._locate(dst)
        if sg == dg:
            if sr == dr:
                return [src, self._router(sg, sr), dst]
            return [src, self._router(sg, sr), self._router(dg, dr), dst]
        # Minimal l-g-l: local to the egress gateway, global, local to dst.
        ga, gb = self._gateway(sg, dg), self._gateway(dg, sg)
        path = [src, self._router(sg, sr)]
        if ga != sr:
            path.append(self._router(sg, ga))
        path.append(self._router(dg, gb))
        if gb != dr:
            path.append(self._router(dg, dr))
        path.append(dst)
        return path

    def segment_latency_ns(self, u: str, v: str) -> int:
        # A global (inter-group) link connects routers of different groups.
        if u.startswith("dfR") and v.startswith("dfR"):
            if u.split(".", 1)[0] != v.split(".", 1)[0]:
                return self.global_latency_ns
        return self.link_latency_ns

    def diameter_hops(self) -> int:
        n = len(self.nodes)
        if n <= self.p:
            return 1
        if n <= self.a * self.p:
            return 2
        return 4 if self.a > 1 else 2  # a == 1: every router is a gateway


class TorusTopology(SwitchFabricTopology):
    """k-ary n-cube: one host per router, wraparound links, dimension-order
    routing taking the shorter wrap direction (ties toward +1)."""

    def __init__(self, dims: Sequence[int], link_latency_ns: int = 100,
                 switch_latency_ns: int = 100):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"torus dims must be positive, got {dims}")
        self.dims = dims
        n = math.prod(dims)
        super().__init__([f"node{i}" for i in range(n)],
                         link_latency_ns, switch_latency_ns)

    def _coord(self, host: str) -> Tuple[int, ...]:
        i = self.index(host)
        coord = []
        for d in reversed(self.dims):
            i, c = divmod(i, d)
            coord.append(c)
        return tuple(reversed(coord))

    @staticmethod
    def _router(coord: Tuple[int, ...]) -> str:
        return "tR" + ".".join(str(c) for c in coord)

    def _route(self, src: str, dst: str) -> List[str]:
        cur = list(self._coord(src))
        goal = self._coord(dst)
        path = [src, self._router(tuple(cur))]
        for dim, size in enumerate(self.dims):
            fwd = (goal[dim] - cur[dim]) % size
            if not fwd:
                continue
            back = size - fwd
            step = 1 if fwd <= back else -1
            for _ in range(min(fwd, back)):
                cur[dim] = (cur[dim] + step) % size
                path.append(self._router(tuple(cur)))
        path.append(dst)
        return path

    def diameter_hops(self) -> int:
        return sum(d // 2 for d in self.dims) + 1


# --------------------------------------------------------------------------
# Spec-string factory
# --------------------------------------------------------------------------

#: One-line grammar reminder appended to every spec-parse error so CLI
#: users see the supported shapes without digging into the docs.
_SPEC_GRAMMAR = ("star, fat-tree[:k=K], torus[:AxB...], or "
                 "dragonfly[:a=A,g=G,p=P]")


def _parse_kv(body: str) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for part in filter(None, body.split(",")):
        key, _, val = part.partition("=")
        if not val:
            raise ValueError(f"malformed topology parameter {part!r}: "
                             f"expected key=INT (supported specs: "
                             f"{_SPEC_GRAMMAR})")
        try:
            out[key.strip()] = int(val)
        except ValueError:
            raise ValueError(
                f"topology parameter {part.strip()!r}: {val.strip()!r} is "
                f"not an integer (supported specs: {_SPEC_GRAMMAR})"
            ) from None
    return out


def _auto_torus_dims(n: int) -> Tuple[int, ...]:
    """Near-square 2D factorization; primes degrade to a 1D ring."""
    best = 1
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            best = d
    return (n,) if best == 1 else (best, n // best)


def make_topology(spec: str, n_nodes: int, link_latency_ns: int = 100,
                  switch_latency_ns: int = 100) -> Topology:
    """Build the topology named by a ``NetworkConfig.topology`` spec string.

    Grammar: ``name[:params]`` with ``star``, ``fat-tree[:k=K]``,
    ``torus[:AxBxC...]``, ``dragonfly[:a=A,g=G,p=P]``.  Parameters are
    optional -- omitted ones auto-size to fit ``n_nodes``.
    """
    name, _, body = spec.strip().partition(":")
    name = name.strip().lower()
    if name == "star":
        if body:
            raise ValueError(f"star takes no parameters, got {body!r}")
        return StarTopology([f"node{i}" for i in range(n_nodes)],
                            link_latency_ns, switch_latency_ns)
    if name in ("fat-tree", "fattree"):
        params = _parse_kv(body)
        unknown = set(params) - {"k"}
        if unknown:
            raise ValueError(f"unknown fat-tree parameters {sorted(unknown)}")
        return FatTreeTopology(n_nodes, k=params.get("k"),
                               link_latency_ns=link_latency_ns,
                               switch_latency_ns=switch_latency_ns)
    if name == "dragonfly":
        params = _parse_kv(body)
        unknown = set(params) - {"a", "g", "p", "global_latency_ns"}
        if unknown:
            raise ValueError(f"unknown dragonfly parameters {sorted(unknown)}")
        return DragonflyTopology(n_nodes, a=params.get("a"), g=params.get("g"),
                                 p=params.get("p"),
                                 link_latency_ns=link_latency_ns,
                                 switch_latency_ns=switch_latency_ns,
                                 global_latency_ns=params.get("global_latency_ns"))
    if name == "torus":
        if body:
            try:
                dims = tuple(int(d) for d in body.replace(" ", "").split("x"))
            except ValueError:
                raise ValueError(
                    f"torus dimensions {body!r}: expected INTxINT... like "
                    f"torus:8x8 (supported specs: {_SPEC_GRAMMAR})") from None
        else:
            dims = _auto_torus_dims(n_nodes)
        if math.prod(dims) != n_nodes:
            raise ValueError(f"torus {'x'.join(map(str, dims))} has "
                             f"{math.prod(dims)} hosts, cluster has {n_nodes}")
        return TorusTopology(dims, link_latency_ns=link_latency_ns,
                             switch_latency_ns=switch_latency_ns)
    raise ValueError(
        f"unknown topology spec {spec!r}; expected {_SPEC_GRAMMAR}")
