"""The fabric: message transport with cut-through timing and port contention.

Timing model (see package docstring): for a message of ``n`` bytes,

* the source **egress port** is occupied for ``ser(n)`` starting when the
  message reaches the head of that port's queue;
* the head of the message propagates along the path
  (``topology.path_latency_ns``);
* the destination **ingress port** is occupied for ``ser(n)`` starting
  when the head arrives (or when the port frees, whichever is later);
* the message is *delivered* (last byte in target memory) when ingress
  occupation ends.

This reproduces the uncontended latency ``ser(n) + 2*link + switch`` of
the paper's star while serializing concurrent senders at the endpoints --
the only contention points of a star with a non-blocking switch.

Fault interposition
-------------------

The fabric is lossless by construction.  :mod:`repro.faults` makes it
misbehave *without touching the timing model* through two hooks:

* an :meth:`install_interposer`-registered object is consulted once per
  transmission and may drop the message, flag it corrupted, add head
  propagation jitter, or defer its delivery (NIC rx stall).  With no
  interposer installed -- the default -- ``transmit`` takes the exact
  pre-fault code path.
* :meth:`register_rx_filter` handlers run at delivery time *before* the
  node's rx handlers and may consume the message (return ``False``),
  which also suppresses the delivery event -- the attachment point for
  the reliable transport's sequencing/dedup/ACK logic.

Per-pair plans
--------------

A pair's route is fixed (:meth:`Topology.route` is deterministic), so
the fabric turns it into a *plan* the first time the pair transmits and
keeps it for its lifetime: the switch output ports the head must win in
order, each with the propagation it pays to reach that port (links,
including a dragonfly's global links or a graph edge's own
``latency_ns``, plus the switch), and the latency of the last segment.
An unrouted topology (the star) has no switch ports, and its plan is the
closed-form ``path_latency_ns``.  Node names are validated on the way
into a plan, and a message the interposer drops builds none.

Each switch output port is one :class:`Port` that every plan crossing it
shares.  It holds the port's ``busy_until`` and, once switch queues are
armed, its backlog, depth and RED stream (see :mod:`repro.net.queues`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import NetworkConfig
from repro.net.packet import Message
from repro.net.topology import Topology
from repro.sim import Event, Simulator, Tracer

__all__ = ["DeliveredMessage", "Fabric", "FaultDecision", "Port"]


@dataclass(frozen=True, slots=True)
class DeliveredMessage:
    """What the destination NIC sees when a message lands."""

    message: Message
    sent_at: int       # entered the source egress queue
    delivered_at: int  # last byte in destination memory
    #: Payload failed the receive-side CRC (fault injection); reliable
    #: transports NACK and discard, plain NICs count and discard.
    corrupted: bool = False
    #: An armed RED+ECN switch queue marked the packet en route; pacing
    #: transports echo this on ACKs and shrink their congestion window.
    ecn: bool = False


@dataclass(frozen=True)
class FaultDecision:
    """One interposer verdict for one transmission."""

    drop: bool = False
    corrupt: bool = False
    extra_delay_ns: int = 0

    def __post_init__(self) -> None:
        if self.extra_delay_ns < 0:
            raise ValueError(f"negative fault delay {self.extra_delay_ns}")


#: The no-fault verdict (shared: decisions are immutable).
NO_FAULT = FaultDecision()


class Port:
    """One direction of a link: FIFO occupancy, plus queue state for a
    switch output port.

    ``key`` is ``(switch, next_vertex)`` for a switch output port and
    ``None`` for a node's egress or ingress port.  ``backlog``,
    ``depth_bytes`` and ``rng`` belong to :class:`repro.net.queues.
    SwitchQueues`, which creates the backlog on the port's first
    admission and the RED stream on its first draw.
    """

    __slots__ = ("key", "busy_until", "backlog", "depth_bytes", "rng")

    def __init__(self, key: Optional[Tuple[str, str]] = None) -> None:
        self.key = key
        self.busy_until = 0
        #: (drain_end_ns, nbytes) of admitted messages, in end order.
        self.backlog = None
        self.depth_bytes = 0
        self.rng = None

    def reserve(self, now: int, duration: int, earliest: int = 0) -> int:
        """Occupy the port for ``duration`` starting at
        ``max(now, earliest, busy_until)``; returns the start."""
        start = self.busy_until
        if start < earliest:
            start = earliest
        if start < now:
            start = now
        self.busy_until = start + duration
        return start


#: A pair's plan: the switch output ports on its route, each with the
#: propagation from the previous port (links + switch), then the last
#: segment's latency and the destination's ingress port.
Plan = Tuple[Tuple[Tuple[int, Port], ...], int, Port]


class Fabric:
    """Message transport over a :class:`Topology`."""

    def __init__(self, sim: Simulator, topology: Topology, net: NetworkConfig,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.topology = topology
        self.net = net
        self.tracer = tracer or Tracer(enabled=False)
        self._egress: Dict[str, Port] = {n: Port() for n in topology.nodes}
        self._ingress: Dict[str, Port] = {n: Port() for n in topology.nodes}
        #: ``_plans[src][dst]``: the pair's :data:`Plan`, built on its
        #: first transmission that is not dropped by the interposer.
        self._plans: Dict[str, Dict[str, Plan]] = {n: {} for n in topology.nodes}
        #: Switch output ports by (switch, next_vertex); read only while
        #: a plan is built, so that plans crossing a port share it.
        self._switch_ports: Dict[Tuple[str, str], Port] = {}
        #: Serialization time by message size.
        self._ser: Dict[int, int] = {}
        self._rx_handlers: Dict[str, List[Callable[[DeliveredMessage], None]]] = {
            n: [] for n in topology.nodes
        }
        self._rx_filters: Dict[str, List[Callable[[DeliveredMessage], bool]]] = {
            n: [] for n in topology.nodes
        }
        #: Fault interposer (:class:`repro.faults.FaultPlan` attachment);
        #: ``None`` keeps the fabric perfectly lossless.
        self.interposer = None
        #: Finite switch-queue model (:class:`repro.net.queues.SwitchQueues`);
        #: ``None`` keeps switch output ports unbounded (pre-queue timing,
        #: byte for byte).
        self.queues = None
        #: Per-node transport registry: reliable transports announce
        #: themselves here so a receiver can complete the sender's
        #: oracle delivery event (see :mod:`repro.nic.transport`).
        self.transports: Dict[str, object] = {}
        self._transmit_probes = sim.probes.transmit
        self.stats = {"messages": 0, "bytes": 0}

    # ------------------------------------------------------------- handlers
    def register_rx(self, node: str, handler: Callable[[DeliveredMessage], None]) -> None:
        """Register a destination-NIC callback for messages landing at ``node``."""
        self.topology.index(node)
        self._rx_handlers[node].append(handler)

    def register_rx_filter(self, node: str,
                           fltr: Callable[[DeliveredMessage], bool]) -> None:
        """Interpose ``fltr`` ahead of ``node``'s rx handlers.  A filter
        returning ``False`` consumes the delivery: handlers do not run and
        the transmit event never fires."""
        self.topology.index(node)
        self._rx_filters[node].append(fltr)

    def install_interposer(self, interposer) -> None:
        """Attach a fault interposer (at most one; see module docstring)."""
        if self.interposer is not None:
            raise RuntimeError("fabric already has a fault interposer")
        self.interposer = interposer

    def enable_queues(self, config, streams=None):
        """Arm finite switch output-port queues (at most once).

        ``config`` is a :class:`repro.config.QueueConfig`; ``streams`` a
        :class:`repro.sim.rng.RandomStreams` (required for RED, whose
        marking draws come from dedicated per-port substreams).  Returns
        the installed :class:`repro.net.queues.SwitchQueues`.
        """
        from repro.net.queues import SwitchQueues

        if self.queues is not None:
            raise RuntimeError("fabric already has switch queues")
        self.queues = SwitchQueues(config, streams, probes=self.sim.probes)
        return self.queues

    # --------------------------------------------------------------- sending
    def transmit(self, msg: Message, event: bool = True) -> Optional[Event]:
        """Inject ``msg`` at its source now; returns the delivery event.

        The event fires at the destination's delivery time with the
        :class:`DeliveredMessage`; registered rx handlers at the
        destination run at the same instant (before event waiters, since
        handler dispatch is part of the delivery callback).  If a fault
        interposer drops the message, or an rx filter consumes it, the
        event never fires.

        ``event=False`` is for a sender that never waits on delivery (the
        reliable transport's data, ACKs and NACKs): no event is built and
        ``None`` is returned.  Where the event would be scheduled,
        :meth:`Simulator.skip_event` takes its ``seq`` and tie-break
        draw, so every other event keeps its key.
        """
        now = self.sim.now
        src = msg.src
        dst = msg.dst
        plans = self._plans.get(src)
        if plans is None:
            self.topology.index(src)  # raises KeyError naming the node
        plan = plans.get(dst)
        if plan is None:
            self.topology.index(dst)
        nbytes = msg.nbytes
        ser = self._ser.get(nbytes)
        if ser is None:
            ser = self._ser[nbytes] = self.net.serialization_ns(nbytes)
        verdict = (self.interposer.on_transmit(msg, now)
                   if self.interposer is not None else NO_FAULT)

        # The sender spends the egress bandwidth whether or not the
        # message survives the wire.  Tracer calls short-circuit on the
        # enabled flag *at the call site* so a traceless sweep never pays
        # for the kwargs dicts.
        tracer = self.tracer
        traced = tracer.enabled
        head = self._egress[src].reserve(now, ser)
        egress_end = head + ser
        if traced:
            tracer.point(now, src, "fabric", "tx",
                         msg_id=msg.msg_id, dst=dst, nbytes=nbytes)
        done = self.sim.event("deliver") if event else None
        self.stats["messages"] += 1
        self.stats["bytes"] += nbytes

        if verdict.drop:
            # Lost in the fabric: no ingress occupancy, no delivery, no
            # probe -- the delivery event simply never fires.
            if traced:
                tracer.point(now, src, "fault", "drop",
                             msg_id=msg.msg_id, dst=dst, nbytes=nbytes)
            return done

        if plan is None:
            plan = plans[dst] = self._plan(src, dst)
        hops, tail, ingress = plan
        # The head leaves the egress port when serialization starts.  At
        # each switch it must win the output port toward the next vertex
        # before entering the next link (cut-through); ports serialize in
        # transmit order, an analytic approximation: reservations happen
        # up front, not as the head actually arrives.
        ecn_marked = False
        if hops:
            queues = self.queues
            if queues is None:
                for delta, port in hops:
                    head = port.reserve(now, ser, head + delta)
            else:
                admit = queues.admit
                for delta, port in hops:
                    head, marked = admit(port, msg, now, head + delta, ser)
                    if head is None:
                        # Queue overflow / RED drop: like an interposer
                        # drop -- no ingress occupancy, no delivery, no
                        # probe; the delivery event never fires.
                        if traced:
                            tracer.point(now, port.key[0], "queue", "drop",
                                         msg_id=msg.msg_id, dst=dst,
                                         nbytes=nbytes)
                        return done
                    if marked:
                        ecn_marked = True
        # The message is delivered when its ingress occupancy ends.
        delivery_time = ingress.reserve(
            now, ser, head + tail + verdict.extra_delay_ns) + ser
        if self.interposer is not None:
            # NIC rx stall windows defer delivery past port occupancy.
            delivery_time = self.interposer.adjust_delivery(dst, delivery_time)
        delivered = DeliveredMessage(msg, sent_at=now, delivered_at=delivery_time,
                                     corrupted=verdict.corrupt, ecn=ecn_marked)
        if verdict.corrupt and traced:
            tracer.point(now, src, "fault", "corrupt",
                         msg_id=msg.msg_id, dst=dst)

        self.sim.call_later(delivery_time - now, self._deliver, delivered, done)
        if self._transmit_probes:
            for probe in self._transmit_probes:
                probe(msg, now, egress_end, delivery_time)
        return done

    def _plan(self, src: str, dst: str) -> Plan:
        """Build the pair's plan from its route (see module docstring)."""
        topo = self.topology
        ingress = self._ingress[dst]
        route = topo.route(src, dst)
        if route is None:
            # Endpoint contention only (the paper's star): propagation is
            # one closed-form number.
            return (), topo.path_latency_ns(src, dst), ingress
        ports = self._switch_ports
        hops = []
        last = len(route) - 1
        for i in range(1, last):
            key = (route[i], route[i + 1])
            port = ports.get(key)
            if port is None:
                port = ports[key] = Port(key)
            delta = (topo.segment_latency_ns(route[i - 1], route[i])
                     + topo.switch_latency_ns)
            hops.append((delta, port))
        tail = topo.segment_latency_ns(route[last - 1], route[last])
        return tuple(hops), tail, ingress

    def _deliver(self, delivered: DeliveredMessage,
                 done: Optional[Event]) -> None:
        """Delivery instant: filters, rx handlers, then the waiter event."""
        msg = delivered.message
        for fltr in self._rx_filters[msg.dst]:
            if not fltr(delivered):
                return
        tracer = self.tracer
        if tracer.enabled:
            tracer.point(self.sim.now, msg.dst, "fabric", "rx",
                         msg_id=msg.msg_id, src=msg.src, nbytes=msg.nbytes)
        for handler in self._rx_handlers[msg.dst]:
            handler(delivered)
        if done is not None:
            done.succeed(delivered)
        else:
            self.sim.skip_event()

    # ------------------------------------------------------------ estimates
    def uncontended_latency_ns(self, src: str, dst: str, nbytes: int) -> int:
        """Closed-form delivery latency with idle ports (for tests/docs)."""
        return self.net.serialization_ns(nbytes) + self.topology.path_latency_ns(src, dst)
