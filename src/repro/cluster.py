"""Cluster construction: full simulated nodes wired to one fabric.

A :class:`Node` is the paper's evaluation platform (Section 5.1): a
coherent SoC with CPU, GPU and NIC sharing one address space.  A
:class:`Cluster` builds ``n`` of them on a star fabric (Table 2) and owns
the simulator, tracer and memory-hazard accounting.

Typical use::

    cluster = Cluster(n_nodes=2, config=default_config())
    n0, n1 = cluster.nodes
    cluster.spawn(my_protocol(n0, n1))
    cluster.run()
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.config import SystemConfig, default_config
from repro.gpu.device import Gpu
from repro.gpu.dispatcher import LaunchLatencyModel
from repro.host import Host
from repro.memory import AddressSpace, ScopedMemoryModel
from repro.net import Fabric, make_topology
from repro.net.topology import Topology
from repro.nic import Nic
from repro.sim import Simulator, Tracer

__all__ = ["Cluster", "Node"]


class Node:
    """One simulated compute node: shared memory + CPU + GPU + NIC."""

    def __init__(self, sim: Simulator, name: str, config: SystemConfig,
                 fabric: Fabric, tracer: Tracer,
                 launch_model: Optional[LaunchLatencyModel] = None,
                 with_gpu: bool = True):
        self.sim = sim
        self.name = name
        self.config = config
        self.space = AddressSpace(name)
        self.mem = ScopedMemoryModel()
        self.nic = Nic(sim, name, self.space, self.mem, fabric, config, tracer=tracer)
        self.gpu: Optional[Gpu] = (
            Gpu(sim, name, config, self.space, self.mem, self.nic,
                tracer=tracer, launch_model=launch_model)
            if with_gpu else None
        )
        self.host = Host(sim, name, config, self.space, self.mem,
                         self.nic, self.gpu, tracer=tracer)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name}>"


class Cluster:
    """``n_nodes`` identical nodes on one fabric, plus the simulator."""

    def __init__(self, n_nodes: int, config: Optional[SystemConfig] = None,
                 topology: Optional[Topology] = None,
                 launch_model: Optional[LaunchLatencyModel] = None,
                 with_gpu: bool = True, trace: bool = True):
        if n_nodes < 1:
            raise ValueError(f"cluster needs >=1 node, got {n_nodes}")
        self.config = config or default_config()
        self.sim = Simulator()
        self.tracer = Tracer(enabled=trace)
        names = [f"node{i}" for i in range(n_nodes)]
        # No explicit topology: build from the config's spec string
        # (default "star" reproduces the paper's Table 2 network exactly).
        self.topology = topology or make_topology(
            self.config.network.topology, n_nodes,
            self.config.network.link_latency_ns,
            self.config.network.switch_latency_ns,
        )
        if list(self.topology.nodes) != names:
            raise ValueError("custom topology must name nodes node0..nodeN-1")
        self.fabric = Fabric(self.sim, self.topology, self.config.network,
                             tracer=self.tracer)
        self.nodes: List[Node] = [
            Node(self.sim, name, self.config, self.fabric, self.tracer,
                 launch_model=launch_model, with_gpu=with_gpu)
            for name in names
        ]
        self._by_name: Dict[str, Node] = {n.name: n for n in self.nodes}
        #: Each node's NIC by name, the shape the NIC testbed harness has.
        self.nics: Dict[str, Nic] = {n.name: n.nic for n in self.nodes}
        #: Set by :func:`repro.metrics.attach_metrics`; ``None`` means no
        #: observability is armed.  Apps may publish app-level measurements
        #: (e.g. per-message latencies) into it when not ``None``.
        self.metrics = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __getitem__(self, i: int) -> Node:
        return self.nodes[i]

    def node(self, name: str) -> Node:
        return self._by_name[name]

    def spawn(self, generator, name: str = ""):
        return self.sim.spawn(generator, name=name)

    def run(self, until: Optional[int] = None) -> int:
        return self.sim.run(until=until)

    # --------------------------------------------------------- reliability
    def enable_reliability(self, config=None) -> None:
        """Arm the go-back-N reliable transport on every node's NIC
        (see :meth:`repro.nic.Nic.enable_reliability`)."""
        for node in self.nodes:
            node.nic.enable_reliability(config)

    def attach_faults(self, fault_config, rng=None):
        """Build a seeded :class:`repro.faults.FaultPlan` from
        ``fault_config`` and install it on the fabric; returns the plan."""
        from repro.faults.plan import FaultPlan

        return FaultPlan(fault_config, rng=rng).attach(self.fabric)

    def enable_queues(self, queue_config, streams=None):
        """Arm finite switch output-port queues on the fabric (see
        :meth:`repro.net.Fabric.enable_queues`).  ``streams`` defaults to
        a :class:`repro.sim.rng.RandomStreams` seeded from the system
        config, so RED marking draws are reproducible per run."""
        if streams is None:
            from repro.sim.rng import RandomStreams

            streams = RandomStreams(self.config.seed)
        return self.fabric.enable_queues(queue_config, streams)

    def transport_counters(self) -> Dict[str, int]:
        """Merged reliability/fault counters across the cluster, ``{}``
        when nothing is armed (so plain RunRecords stay byte-identical)."""
        merged: Dict[str, int] = {}
        for node in self.nodes:
            transport = node.nic.transport
            if transport is None:
                continue
            for key, val in transport.stats.items():
                if val:
                    merged[key] = merged.get(key, 0) + val
        plan = self.fabric.interposer
        if plan is not None and hasattr(plan, "counters"):
            for key, val in plan.counters().items():
                merged[f"fault_{key}"] = merged.get(f"fault_{key}", 0) + val
        queues = self.fabric.queues
        if queues is not None:
            for key, val in queues.counters().items():
                merged[key] = merged.get(key, 0) + val
        return merged

    # ------------------------------------------------------------ analysis
    def total_hazards(self) -> int:
        """Memory-model hazards across all nodes (should be 0 for correct
        strategies; deliberately non-zero in fence-omission tests)."""
        return sum(n.mem.hazard_count() for n in self.nodes)

    def total_cpu_busy_ns(self) -> int:
        return sum(n.host.stats["busy_ns"] for n in self.nodes)
