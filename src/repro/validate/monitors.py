"""Runtime invariant monitors (DESIGN.md §6, enforced live).

Each monitor subscribes to topics of the simulator's probe bus
(``cluster.sim.probes``, :mod:`repro.sim.probes`) -- so it watches every
node, including transports armed after it attached -- and performs an
O(1) check per observed event, raising a structured
:class:`~repro.validate.violations.InvariantViolation` the moment an
invariant breaks -- the offending schedule is still on the heap and the
tracer context rides along in the violation.

Monitors are deliberately independent of the strategies under test: they
watch the hardware models, not the flows, so any workload (microbench,
Jacobi, Allreduce, collectives) runs under the same monitor set.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.validate.violations import InvariantViolation, trace_context

__all__ = [
    "ExactlyOnceTriggerMonitor",
    "FabricOrderMonitor",
    "Monitor",
    "MonotoneClockMonitor",
    "PacketConservationMonitor",
    "ReliableDeliveryMonitor",
    "SendBufferSafetyMonitor",
    "attach_monitors",
    "default_monitors",
]


class Monitor:
    """Base class: one invariant, attached to one cluster at a time."""

    #: DESIGN.md §6 invariant identifier, e.g. ``"event-clock"``.
    invariant: str = "invariant"

    def __init__(self) -> None:
        self._tracer = None

    # ----------------------------------------------------------------- wiring
    def attach(self, cluster) -> None:
        """Subscribe to ``cluster.sim.probes`` (subclasses extend)."""
        self._tracer = getattr(cluster, "tracer", None)

    def finalize(self) -> None:
        """End-of-run checks (e.g. every met threshold actually fired)."""

    # ------------------------------------------------------------- reporting
    def violation(self, message: str, *, time: Optional[int] = None,
                  node: Optional[str] = None, **details: Any) -> None:
        raise InvariantViolation(
            self.invariant, message, time=time, node=node, details=details,
            context=trace_context(self._tracer))


class MonotoneClockMonitor(Monitor):
    """Invariant 1: events pop in non-decreasing time, and the FIFO
    tie-break is stable -- consecutive pops at the same ``(time,
    priority, tiebreak)`` must come out in true insertion order.  The
    check uses the insertion counter the scheduler stamps on every event
    (``Event._sched_seq``), not the heap tuple, so an engine that drops
    or inverts its tie-break key is caught even if its reported keys look
    self-consistent."""

    invariant = "event-clock"

    def __init__(self) -> None:
        super().__init__()
        self._last_pop: Optional[Tuple[int, int, int, int]] = None

    def attach(self, cluster) -> None:
        super().attach(cluster)
        cluster.sim.probes.step.append(self._on_step)

    def _on_step(self, time: int, priority: int, tiebreak: int, seq: int,
                 event) -> None:
        sched_seq = getattr(event, "_sched_seq", 0)
        last = self._last_pop
        if last is not None:
            if time < last[0]:
                self.violation(
                    f"event clock went backwards: t={time} after t={last[0]}",
                    time=time, previous_time=last[0], event=repr(event))
            if (time, priority, tiebreak) == last[:3] and sched_seq <= last[3]:
                self.violation(
                    "FIFO tie-break violated: event scheduled as "
                    f"#{sched_seq} fired after same-slot event #{last[3]} "
                    f"at (t={time}, priority={priority})",
                    time=time, sched_seq=sched_seq, previous_seq=last[3],
                    event=repr(event))
        self._last_pop = (time, priority, tiebreak, sched_seq)


class ExactlyOnceTriggerMonitor(Monitor):
    """Invariant 2: a triggered operation fires **iff** its counter
    reached its threshold, exactly once, under any interleaving of CPU
    registration and GPU trigger writes (relaxed-sync race freedom)."""

    invariant = "trigger-exactly-once"

    def __init__(self) -> None:
        super().__init__()
        # id(entry) -> (node, entry, fire count) for every entry seen
        # registered or triggered; entries are kept alive by the
        # reference so ids stay unique for the run.
        self._entries: Dict[int, Tuple[str, Any, int]] = {}
        self._cluster = None

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self._cluster = cluster
        cluster.sim.probes.trigger.append(self._observe)

    def _observe(self, node: str, kind: str, entry) -> None:
        key = id(entry)
        known = self._entries.get(key)
        fires = known[2] if known else 0
        if kind == "fire":
            now = self._cluster.sim.now
            if fires:
                self.violation(
                    f"trigger entry tag={entry.tag} fired more than once",
                    time=now, node=node, tag=entry.tag,
                    counter=entry.counter, threshold=entry.threshold)
            if not entry.armed:
                self.violation(
                    f"unarmed trigger entry tag={entry.tag} fired "
                    "(no registered operation/threshold)",
                    time=now, node=node, tag=entry.tag,
                    counter=entry.counter)
            if entry.counter < entry.threshold:
                self.violation(
                    f"trigger entry tag={entry.tag} fired below threshold "
                    f"({entry.counter} < {entry.threshold})",
                    time=now, node=node, tag=entry.tag,
                    counter=entry.counter, threshold=entry.threshold)
            fires += 1
        self._entries[key] = (node, entry, fires)

    def finalize(self) -> None:
        # The "only if" direction fires inline above; here is the "if":
        # every armed entry whose counter met its threshold must have fired
        # by the end of the run -- each entry still on a trigger list,
        # however it got there, and each one seen and since freed.
        lists = [(nic.node, nic.trigger_list)
                 for nic in self._cluster.nics.values()]
        entries = {id(e): (node, e) for node, tl in lists for e in tl.lookup}
        entries.update((key, (node, entry))
                       for key, (node, entry, _) in self._entries.items())
        for node, entry in entries.values():
            if (entry.armed and not entry.fired
                    and entry.counter >= entry.threshold):
                self.violation(
                    f"trigger entry tag={entry.tag} met its threshold "
                    f"({entry.counter} >= {entry.threshold}) but never fired",
                    node=node, tag=entry.tag, counter=entry.counter,
                    threshold=entry.threshold)
        for node, trigger_list in lists:
            fired_marks = sum(1 for e in trigger_list.lookup if e.fired)
            if fired_marks > trigger_list.stats["fired"]:
                self.violation(
                    "trigger list bookkeeping drift: more fired entries than "
                    "recorded fires",
                    node=node, fired_entries=fired_marks,
                    recorded=trigger_list.stats["fired"])


class FabricOrderMonitor(Monitor):
    """Invariant 6: per-pair FIFO and bandwidth serialization.  Messages
    between the same (src, dst) pair deliver in transmit order, egress
    serialization windows on one link never overlap or regress, and no
    delivery beats the physical lower bound (serialization + path)."""

    invariant = "fabric-order"

    def __init__(self) -> None:
        super().__init__()
        self._last_delivery: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self._last_egress_end: Dict[str, int] = {}
        self._fabric = None

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self._fabric = cluster.fabric
        cluster.sim.probes.transmit.append(self._on_transmit)

    def _on_transmit(self, msg, sent_at: int, egress_end: int,
                     delivered_at: int) -> None:
        fabric = self._fabric
        ser = fabric.net.serialization_ns(msg.nbytes)
        floor = sent_at + ser + fabric.topology.path_latency_ns(msg.src, msg.dst)
        if delivered_at < floor:
            self.violation(
                f"message {msg.msg_id} ({msg.nbytes}B {msg.src}->{msg.dst}) "
                f"delivered at t={delivered_at}, before the physical floor "
                f"t={floor}",
                time=sent_at, node=msg.src, msg_id=msg.msg_id,
                nbytes=msg.nbytes, floor=floor, delivered_at=delivered_at)
        wire_start = egress_end - ser
        prev_end = self._last_egress_end.get(msg.src)
        if wire_start < sent_at or (prev_end is not None and wire_start < prev_end):
            self.violation(
                f"egress serialization overlap on {msg.src}: message "
                f"{msg.msg_id} starts wire at t={wire_start} inside the "
                f"previous window ending t={prev_end} (sent at t={sent_at})",
                time=sent_at, node=msg.src, msg_id=msg.msg_id,
                previous_end=prev_end, start=wire_start)
        self._last_egress_end[msg.src] = max(prev_end or 0, egress_end)
        pair = (msg.src, msg.dst)
        last = self._last_delivery.get(pair)
        if last is not None and delivered_at < last[0]:
            self.violation(
                f"FIFO violated on {msg.src}->{msg.dst}: message "
                f"{msg.msg_id} ({msg.nbytes}B) delivers at t={delivered_at}, "
                f"beating earlier message {last[1]} delivered at t={last[0]}",
                time=sent_at, node=msg.src, msg_id=msg.msg_id,
                earlier_msg_id=last[1], earlier_delivery=last[0],
                delivered_at=delivered_at)
        self._last_delivery[pair] = (delivered_at, msg.msg_id)


class SendBufferSafetyMonitor(Monitor):
    """Invariant 7: the local-completion flag means the send buffer is
    reusable -- so the NIC must have captured the payload (DMA read)
    before completion signals, and must never touch the buffer after."""

    invariant = "completion-safety"

    def __init__(self) -> None:
        super().__init__()
        self._read_at: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}

    def attach(self, cluster) -> None:
        super().attach(cluster)
        cluster.sim.probes.put.append(self._observe)

    def _observe(self, node: str, kind: str, handle, now: int) -> None:
        hid = handle.handle_id
        if kind == "send-dma-read":
            done_at = self._completed.get(hid)
            if done_at is not None:
                self.violation(
                    f"NIC read send buffer of op {handle.op.op_id} at "
                    f"t={now}, after local completion at t={done_at} "
                    "declared it reusable",
                    time=now, node=node, op_id=handle.op.op_id,
                    completed_at=done_at)
            self._read_at[hid] = now
        elif kind == "local-complete":
            read_at = self._read_at.get(hid)
            if read_at is None:
                self.violation(
                    f"local completion for op {handle.op.op_id} at t={now} "
                    "before the NIC captured the payload",
                    time=now, node=node, op_id=handle.op.op_id)
            self._completed[hid] = now


class ReliableDeliveryMonitor(Monitor):
    """Invariant 8: under the reliable transport, each (src, dst) flow
    accepts sequence numbers in exactly-once, exactly-in-order fashion
    (0, 1, 2, ... with no duplicate or gap ever *accepted* -- drops,
    duplicates and gaps on the wire are fine, acceptance is not), and by
    the end of the run every transmitted sequence has been accepted
    unless the sender declared that flow dead (retry budget exhausted).

    Subscribes to the ``transport`` topic; NICs without a transport
    armed emit nothing there, so the monitor is safe to include in
    mixed-mode clusters.
    """

    invariant = "reliable-delivery"

    def __init__(self) -> None:
        super().__init__()
        # flow key is (sender node, receiver node)
        self._accepted: Dict[Tuple[str, str], int] = {}
        self._sent: Dict[Tuple[str, str], int] = {}
        self._dead: set = set()

    def attach(self, cluster) -> None:
        super().attach(cluster)
        cluster.sim.probes.transport.append(self._observe)

    def _observe(self, node: str, kind: str, peer: str, seq: int,
                 now: int) -> None:
        if kind == "tx":
            flow = (node, peer)
            self._sent[flow] = max(self._sent.get(flow, -1), seq)
        elif kind == "accept":
            # `node` is the receiver here; the flow runs peer -> node.
            flow = (peer, node)
            last = self._accepted.get(flow, -1)
            if seq != last + 1:
                what = "duplicate" if seq <= last else "gap"
                self.violation(
                    f"flow {peer}->{node} accepted seq {seq} after {last} "
                    f"({what} acceptance breaks exactly-once delivery)",
                    time=now, node=node, src=peer, seq=seq, last_accepted=last)
            self._accepted[flow] = seq
        elif kind == "give-up":
            self._dead.add((node, peer))

    def finalize(self) -> None:
        for flow, highest_sent in sorted(self._sent.items()):
            if flow in self._dead:
                continue  # retry budget exhausted: the tail is allowed to die
            accepted = self._accepted.get(flow, -1)
            if accepted < highest_sent:
                src, dst = flow
                self.violation(
                    f"flow {src}->{dst} transmitted up to seq {highest_sent} "
                    f"but only seq {accepted} was ever accepted (lost "
                    "messages never recovered)",
                    node=src, dst=dst, highest_sent=highest_sent,
                    highest_accepted=accepted)


class PacketConservationMonitor(Monitor):
    """Invariant 9: no packet leak.  Every message injected into the
    fabric is accounted for: scheduled for delivery, dropped by the
    fault interposer, or dropped by a finite switch queue -- nothing
    vanishes without a counted cause.  With reliable transports armed,
    the end-of-run state must also be fully drained: no sequence stuck
    in a receiver's reorder buffer and no entry stranded in a live
    sender window (dead flows, whose tails are allowed to die, are
    exempt).  A run truncated mid-flight fails the drain check -- by
    design: a congestion sweep point that never quiesced is not a valid
    measurement.

    Not part of :func:`default_monitors` (the §6 invariant set those pin
    is fabric/engine-level); armed explicitly by the congestion study
    and its CI smoke job.
    """

    invariant = "packet-conservation"

    def __init__(self) -> None:
        super().__init__()
        self._fabric = None
        self._scheduled = 0

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self._fabric = cluster.fabric
        cluster.sim.probes.transmit.append(self._on_transmit)

    def _on_transmit(self, msg, sent_at: int, egress_end: int,
                     delivered_at: int) -> None:
        # The fabric probes exactly the transmissions it schedules for
        # delivery (drops -- fault or queue -- are never probed).
        self._scheduled += 1

    def finalize(self) -> None:
        fabric = self._fabric
        injected = fabric.stats["messages"]
        fault_drops = (fabric.interposer.stats.get("drops", 0)
                       if fabric.interposer is not None else 0)
        queue_drops = (fabric.queues.stats.get("dropped", 0)
                       if fabric.queues is not None else 0)
        accounted = self._scheduled + fault_drops + queue_drops
        if accounted != injected:
            self.violation(
                f"packet leak: {injected} messages injected but only "
                f"{accounted} accounted for ({self._scheduled} scheduled "
                f"for delivery + {fault_drops} fault drops + "
                f"{queue_drops} queue drops)",
                injected=injected, scheduled=self._scheduled,
                fault_drops=fault_drops, queue_drops=queue_drops)
        for transport in fabric.transports.values():
            flows = transport.flows()
            for rx_peer, rx in getattr(transport, "_rx", {}).items():
                buffered = getattr(rx, "buffer", None)
                if not buffered:
                    continue
                peer_tx = fabric.transports.get(rx_peer)
                peer_dead = (peer_tx is not None
                             and peer_tx.flows()
                                 .get(transport.node, {}).get("dead"))
                if peer_dead:
                    continue  # sender gave up; the hole is never repaired
                self.violation(
                    f"reorder-buffer leak at {transport.node}: seqs "
                    f"{sorted(buffered)} from {rx_peer} held above an "
                    "unrepaired gap at end of run",
                    node=transport.node, src=rx_peer,
                    stranded=sorted(buffered))
            for peer, flow in flows.items():
                if flow["in_flight"] and not flow["dead"]:
                    self.violation(
                        f"undrained send window {transport.node}->{peer}: "
                        f"{flow['in_flight']} messages still in flight on "
                        "a live flow at end of run",
                        node=transport.node, dst=peer,
                        in_flight=flow["in_flight"])


def default_monitors() -> List[Monitor]:
    """A fresh instance of every runtime monitor."""
    return [MonotoneClockMonitor(), ExactlyOnceTriggerMonitor(),
            FabricOrderMonitor(), SendBufferSafetyMonitor()]


def attach_monitors(cluster, monitors: Optional[List[Monitor]] = None
                    ) -> List[Monitor]:
    """Arm ``monitors`` (default: all of them) on ``cluster``; returns the
    attached list so the caller can :meth:`~Monitor.finalize` after the
    run."""
    monitors = default_monitors() if monitors is None else monitors
    for monitor in monitors:
        monitor.attach(cluster)
    return monitors
