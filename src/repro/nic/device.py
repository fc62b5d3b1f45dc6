"""The NIC device model.

One :class:`Nic` per node.  It owns:

* a **command interface** used by the host runtime: post-and-go operations
  (puts / gets / two-sided sends) and *deferred* operations that wait for a
  doorbell (the GDS baseline) or a trigger threshold (GPU-TN);
* the **trigger machinery** of the paper: an MMIO *trigger address* whose
  writes land in a FIFO, a trigger processor that pops the FIFO, matches
  tags against the trigger list and fires ready operations;
* a **DMA engine** that moves real bytes between the node's address space
  and the wire (so application-level correctness is end-to-end testable),
  validating RDMA registration and the scoped memory model on every access;
* target-side handling: one-sided put landing, two-sided matching with an
  unexpected-message queue, get servicing, and completion-flag writes.

A put's :class:`PutHandle` builds its ``local`` and ``delivered`` events
only when someone asks for them; a completion nobody waits on pops as a
pooled callback under the key the event would have had (DESIGN.md §10).
Every data message goes out through :meth:`Nic._transmit`, which reports
its first transmission and its outcome back to the NIC in one shape,
with or without the reliable transport.  Each DMA resolves its buffer
once.

Timing knobs come from :class:`repro.config.NicConfig`; see DESIGN.md §5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.config import NicConfig, ReliabilityConfig, SystemConfig
from repro.memory import Agent, Buffer, MemoryOrder, Scope
from repro.net import DeliveredMessage, Fabric, Message
from repro.net.packet import MessageKind
from repro.nic.lookup import make_lookup
from repro.nic.triggered import NetworkOp, TriggerEntry, TriggerList
from repro.sim import Event, Simulator, Store, Tracer, WatchedEvent

__all__ = ["Nic", "PutHandle", "RecvHandle", "GetHandle"]

_handle_ids = itertools.count(1)

#: Size of the MMIO window that serves as the trigger address.
_TRIGGER_WINDOW_BYTES = 64


#: Completion state of a handle event (see :class:`PutHandle`).
_PENDING, _TRIGGERED, _POPPED = 0, 1, 2


class PutHandle:
    """Initiator-side handle for a put/send operation.

    ``local`` fires when the send buffer is reusable (the NIC finished
    reading it).  ``delivered`` fires when the last byte lands in target
    memory; in hardware this requires an ACK, here it is the simulator's
    oracle view, used for measurement (paper Figure 8 reports
    target-side completion).

    Each event is built on first access (DESIGN.md §10, "an Event exists
    only once someone can wait on it").  When the NIC completes one that
    nobody has touched, the handle records the outcome and pushes a
    pooled pop under the key the event's own ``succeed``/``fail`` would
    have taken.  An access between that completion and its pop builds a
    triggered event whose waiters resume at the pop; an access after it
    builds a processed one.
    """

    __slots__ = ("op", "local_flag", "handle_id", "_sim",
                 "_local", "_local_state", "_local_ok", "_local_value",
                 "_delivered", "_delivered_state", "_delivered_ok",
                 "_delivered_value")

    def __init__(self, sim: Simulator, op: NetworkOp,
                 local_flag: Optional[Tuple[Buffer, int]] = None):
        self.op = op
        #: optional (buffer, offset) the NIC writes 1 to at local completion
        self.local_flag = local_flag
        self.handle_id = next(_handle_ids)
        self._sim = sim
        self._local: Optional[Event] = None
        self._local_state = _PENDING
        self._local_ok = True
        self._local_value: Any = None
        self._delivered: Optional[Event] = None
        self._delivered_state = _PENDING
        self._delivered_ok = True
        self._delivered_value: Any = None

    @property
    def local(self) -> Event:
        ev = self._local
        if ev is None:
            ev = self._local = self._build(self._local_state, self._local_ok,
                                           self._local_value)
        return ev

    @property
    def delivered(self) -> Event:
        ev = self._delivered
        if ev is None:
            ev = self._delivered = self._build(
                self._delivered_state, self._delivered_ok,
                self._delivered_value)
        return ev

    def _build(self, state: int, ok: bool, value: Any) -> Event:
        if state == _PENDING:
            return Event(self._sim)
        return Event.settled(self._sim, ok, value, processed=state == _POPPED)

    # The NIC completes each event once, through these; the flags they
    # set are what it checks, so completing builds no event.
    def _complete_local(self, ok: bool, value: Any) -> None:
        self._local_state = _TRIGGERED
        ev = self._local
        if ev is not None:
            if ok:
                ev.succeed(value)
            else:
                ev.fail(value)
            return
        self._local_ok = ok
        self._local_value = value
        self._sim.call_later(0, self._pop_local)

    def _pop_local(self) -> None:
        self._local_state = _POPPED
        if self._local is not None:
            self._local._run_callbacks()

    def _complete_delivered(self, ok: bool, value: Any) -> None:
        self._delivered_state = _TRIGGERED
        ev = self._delivered
        if ev is not None:
            if ok:
                ev.succeed(value)
            else:
                ev.fail(value)
            return
        self._delivered_ok = ok
        self._delivered_value = value
        self._sim.call_later(0, self._pop_delivered)

    def _pop_delivered(self) -> None:
        self._delivered_state = _POPPED
        if self._delivered is not None:
            self._delivered._run_callbacks()


@dataclass(slots=True)
class RecvHandle:
    """Target-side handle for a two-sided receive."""

    tag: int
    local_addr: int
    nbytes: int
    complete: Event = None  # type: ignore[assignment]
    handle_id: int = field(default_factory=lambda: next(_handle_ids))


@dataclass(slots=True)
class GetHandle:
    """Initiator-side handle for a get operation."""

    op: NetworkOp
    complete: Event = None  # type: ignore[assignment]
    handle_id: int = field(default_factory=lambda: next(_handle_ids))


class Nic:
    """Per-node RDMA NIC with GPU-TN trigger extensions."""

    def __init__(self, sim: Simulator, node: str, space, mem_model, fabric: Fabric,
                 config: SystemConfig, tracer: Optional[Tracer] = None):
        self.sim = sim
        self.node = node
        self.space = space
        self.mem = mem_model
        self.fabric = fabric
        self.config = config
        self.nc: NicConfig = config.nic
        self.tracer = tracer or Tracer(enabled=False)

        # Trigger machinery.
        lookup = make_lookup(self.nc.trigger_lookup, capacity=self.nc.max_trigger_entries)
        self.trigger_list = TriggerList(lookup, on_fire=self._on_trigger_fire,
                                        on_free=self._on_trigger_free,
                                        node=node, probes=sim.probes)
        # Handles of registered triggered operations by op id: a
        # PutHandle, a GetHandle, or a fan-out's list of PutHandles.
        # Dropped when the entry is freed.  Kept here rather than in the
        # op's meta, where handle -> op -> meta -> handle was a reference
        # cycle that pinned each put's delivered message and payload
        # until a full garbage collection.
        self._trigger_handles: Dict[int, Any] = {}
        self._trigger_fifo: Store = Store(sim, capacity=self.nc.trigger_fifo_depth,
                                          name=f"{node}.trigfifo")
        self._trigger_addr = 0xF000_0000 + hash(node) % 0x1000 * _TRIGGER_WINDOW_BYTES
        # The trigger pump is a callback state machine started by a boot
        # event.  Its event count and seq numbering are pinned by the
        # golden RunRecord fixtures, so rewriting it (e.g. back into a
        # generator process) must keep both.
        boot = Event(sim, name=f"boot:{node}.nic.trigger-pump")
        boot.callbacks.append(self._pump_boot)
        boot.succeed()
        #: Set if the pump halted on a model error (e.g. trigger-list
        #: overflow) -- the callback-machine analogue of the old pump
        #: process's silent failure.
        self._pump_error: Optional[BaseException] = None

        # Two-sided state.
        self._posted_recvs: Dict[int, Deque[RecvHandle]] = {}
        self._unexpected: Dict[int, Deque[DeliveredMessage]] = {}

        # Completion routing for one-sided ops landing here.
        self._rx_flags: Dict[int, Tuple[Buffer, int]] = {}
        self._rx_watchers: Dict[int, List[Event]] = {}
        # Arrival-chained triggers (Portals CT-event chaining): a put
        # landing with wire_tag increments these local trigger tags, with
        # no host involvement -- the mechanism behind NIC-offloaded
        # collectives (Underwood et al., the paper's ref [40]).
        self._rx_chains: Dict[int, List[int]] = {}

        # Get servicing.
        self._pending_gets: Dict[int, GetHandle] = {}
        # Section 3.4 dynamic-trigger overrides (set around trigger() calls).
        self._active_overrides: Optional[Dict[str, Any]] = None

        fabric.register_rx(node, self._handle_rx)
        #: Reliable-transport engine; ``None`` (the default) keeps the
        #: seed's lossless fire-and-forget behavior.  Armed via
        #: :meth:`enable_reliability` before any traffic flows.
        self.transport = None
        self._put_probes = sim.probes.put
        self._fifo_probes = sim.probes.fifo
        self.stats = {"tx_ops": 0, "rx_puts": 0, "rx_sends": 0, "rx_gets": 0,
                      "rx_corrupt": 0, "doorbells": 0, "trigger_writes": 0}

    # ------------------------------------------------------- reliable transport
    def enable_reliability(self, config: Optional[ReliabilityConfig] = None):
        """Arm the reliable transport on this NIC (go-back-N by default,
        selective-repeat via ``ReliabilityConfig(mode=...)``).

        Must run before any traffic flows (sequence numbers start at the
        first send).
        """
        if self.transport is not None:
            raise RuntimeError(f"reliability already enabled on {self.node}")
        from repro.nic.transport import make_transport

        self.transport = make_transport(self, config or ReliabilityConfig())

    def _transmit(self, msg: Message, handle: Any = None) -> None:
        """Send one data message for ``handle`` (a :class:`PutHandle`, a
        get request's :class:`GetHandle`, or ``None``), through the
        reliable transport when armed.

        The message's first transmission calls :meth:`_on_sent` inline.
        Its outcome runs :meth:`_on_outcome` in a pop of its own, under
        the delivery event's key: the :class:`DeliveredMessage`, or with
        reliability on a :class:`~repro.nic.transport.TransportError`.
        """
        if self.transport is not None:
            self.transport.send(msg, handle)
            return
        done = self.fabric.transmit(msg)
        self._on_sent(handle)
        done.callbacks.append(partial(self._on_delivery_event, handle))

    def _on_delivery_event(self, handle: Any, ev: Event) -> None:
        self._on_outcome(handle, ev.ok, ev.value)

    # ------------------------------------------------------------ MMIO side
    @property
    def trigger_address(self) -> int:
        """The memory-mapped address GPU kernels store tags to (paper §3.1)."""
        return self._trigger_addr

    def mmio_write(self, addr: int, value: int, from_agent: Agent = Agent.GPU) -> None:
        """A posted write to NIC MMIO space.

        Arrives at the NIC FIFO ``doorbell_mmio_ns`` after issue.  Writes
        to addresses outside the trigger window are a programming error.
        """
        if not (self._trigger_addr <= addr < self._trigger_addr + _TRIGGER_WINDOW_BYTES):
            raise ValueError(
                f"MMIO write to {addr:#x} outside trigger window of node {self.node}"
            )
        self.stats["trigger_writes"] += 1
        if self.tracer.enabled:
            self.tracer.point(self.sim.now, self.node, from_agent.value,
                              "trigger-store", tag=value)
        self.sim.call_later(self.nc.doorbell_mmio_ns, self._fifo_push, (int(value), None))

    _DYNAMIC_FIELDS = frozenset({"target", "remote_addr", "local_addr", "nbytes"})

    def mmio_write_dynamic(self, addr: int, tag: int,
                           from_agent: Agent = Agent.GPU, **overrides: Any) -> None:
        """The Section 3.4 extension: a wide MMIO write that carries
        operation fields alongside the tag, letting the GPU choose e.g.
        the target node or buffer at trigger time.

        When the write that crosses the threshold carries overrides, they
        are applied to the registered operation before it fires
        (last-writer-wins for accumulating thresholds).
        """
        if not (self._trigger_addr <= addr < self._trigger_addr + _TRIGGER_WINDOW_BYTES):
            raise ValueError(
                f"MMIO write to {addr:#x} outside trigger window of node {self.node}"
            )
        unknown = set(overrides) - self._DYNAMIC_FIELDS
        if unknown:
            raise ValueError(f"unsupported dynamic fields {sorted(unknown)}; "
                             f"allowed: {sorted(self._DYNAMIC_FIELDS)}")
        self.stats["trigger_writes"] += 1
        if self.tracer.enabled:
            self.tracer.point(self.sim.now, self.node, from_agent.value,
                              "trigger-store", tag=tag, dynamic=True)
        # A wide (multi-word) MMIO write costs one extra propagation beat.
        self.sim.call_later(self.nc.doorbell_mmio_ns + self.nc.doorbell_mmio_ns // 4,
                            self._fifo_push, (int(tag), dict(overrides)))

    def _fifo_push(self, item: tuple[int, Optional[Dict[str, Any]]]) -> None:
        if not self._trigger_fifo.try_put(item):
            # A full FIFO in hardware back-pressures the interconnect; we
            # surface it loudly instead of silently dropping triggers.
            raise RuntimeError(
                f"trigger FIFO overflow on node {self.node} "
                f"(depth {self.nc.trigger_fifo_depth})"
            )
        if self._fifo_probes:
            for probe in self._fifo_probes:
                probe(self.node, "fifo-push", self.sim.now, len(self._trigger_fifo))

    # The trigger processor: pop, match, count, maybe fire.  Spelled as a
    # callback loop (_pump_boot -> _pump_wait -> _pump_item -> timeout ->
    # _pump_cooled -> _pump_wait ...) so the NIC holds no generator frame;
    # each handler attaches at the exact callback position the generator's
    # _resume used to occupy, keeping pop order byte-identical.
    def _pump_boot(self, _ev: Event) -> None:
        self._pump_wait()

    def _pump_wait(self) -> None:
        self._trigger_fifo.get().callbacks.append(self._pump_item)

    def _pump_item(self, ev: Event) -> None:
        tag, overrides = ev.value
        if self._fifo_probes:
            for probe in self._fifo_probes:
                probe(self.node, "fifo-pop", self.sim.now, len(self._trigger_fifo))
        self._active_overrides = overrides
        try:
            self.trigger_list.trigger(tag)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                raise
            # The generator pump died silently here (Process._resume
            # swallowed model errors into an unwaited process event);
            # keep that contract, but record the cause for inspection.
            self._pump_error = exc
            return
        finally:
            self._active_overrides = None
        # Lookup cost of the match we just did (structure-dependent).
        cooldown = self.sim.timeout(self.trigger_list.lookup.cost_ns())
        cooldown.callbacks.append(self._pump_cooled)

    def _pump_cooled(self, _ev: Event) -> None:
        self._pump_wait()

    # --------------------------------------------------- CPU command: posts
    def post_put(self, local_addr: int, nbytes: int, target: str,
                 remote_addr: int, wire_tag: Optional[int] = None,
                 local_flag: Optional[Tuple[Buffer, int]] = None,
                 kind: str = "put",
                 meta: Optional[Dict[str, Any]] = None,
                 deferred: bool = False) -> PutHandle:
        """Post a put (or two-sided send) command to the NIC.

        With ``deferred=True`` the operation is staged and waits for
        :meth:`ring_doorbell` -- the GDS model, where the CPU posts ahead
        of time and the GPU front-end rings at a kernel boundary.
        """
        op = NetworkOp(kind=kind, local_addr=local_addr, nbytes=nbytes,
                       target=target, remote_addr=remote_addr, wire_tag=wire_tag,
                       meta=dict(meta or {}))
        handle = PutHandle(self.sim, op, local_flag)
        if not deferred:
            self._initiate(handle, extra_delay=0)
        return handle

    def ring_doorbell(self, handle: PutHandle) -> None:
        """Initiate a previously staged (deferred) operation.

        Models the GDS doorbell: because the operation was fully posted
        ahead of time, the descriptor and DMA program are already staged
        on the NIC -- the doorbell merely flips a valid bit, so initiation
        is immediate (this matches the paper's Figure 8, where the GDS put
        leaves the initiator essentially at kernel completion).  Contrast
        with the GPU-TN trigger path, which pays MMIO propagation, tag
        matching and operation fetch.
        """
        self.stats["doorbells"] += 1
        if self.tracer.enabled:
            self.tracer.point(self.sim.now, self.node, "nic", "doorbell",
                              op=handle.op.op_id)
        self._initiate(handle, extra_delay=0, staged=True)

    def post_get(self, local_addr: int, nbytes: int, target: str,
                 remote_addr: int) -> GetHandle:
        """Post a one-sided get: fetch remote bytes into local memory."""
        op = NetworkOp(kind="get", local_addr=local_addr, nbytes=nbytes,
                       target=target, remote_addr=remote_addr)
        handle = GetHandle(op=op, complete=self.sim.event(f"get:{op.op_id}"))
        self._pending_gets[op.op_id] = handle
        self.sim.call_later(self.nc.command_process_ns, self._issue_get, op)
        return handle

    def _issue_get(self, op: NetworkOp) -> None:
        msg = Message(src=self.node, dst=op.target, nbytes=64,
                      kind=MessageKind.GET_REQUEST,
                      remote_addr=op.remote_addr,
                      meta={"op_id": op.op_id, "nbytes": op.nbytes,
                            "reply_addr": op.local_addr})
        self._transmit(msg, self._pending_gets[op.op_id])
        self.stats["tx_ops"] += 1

    def register_triggered_get(self, tag: int, threshold: int, local_addr: int,
                               nbytes: int, target: str,
                               remote_addr: int) -> TriggerEntry:
        """Register a triggered *get*: fetch remote bytes when the tag's
        counter reaches the threshold (Portals 4 offers the full family
        of triggered operations; the paper evaluates puts)."""
        op = NetworkOp(kind="get", local_addr=local_addr, nbytes=nbytes,
                       target=target, remote_addr=remote_addr)
        handle = GetHandle(op=op, complete=self.sim.event(f"tget:{op.op_id}"))
        self._trigger_handles[op.op_id] = handle
        self._pending_gets[op.op_id] = handle
        return self.trigger_list.register(op, tag, threshold)

    def get_handle_for(self, entry: TriggerEntry) -> GetHandle:
        if entry.op is None or entry.op.kind != "get":
            raise ValueError(f"trigger entry tag={entry.tag} is not a get")
        return self._registered(entry)

    # ------------------------------------------------ CPU command: recv side
    def post_recv(self, tag: int, local_addr: int, nbytes: int) -> RecvHandle:
        """Post a two-sided receive; matches sends by tag, FIFO per tag."""
        handle = RecvHandle(tag=tag, local_addr=local_addr, nbytes=nbytes,
                            complete=WatchedEvent(self.sim, f"recv:{tag}"))
        waiting = self._unexpected.get(tag)
        if waiting:
            delivered = waiting.popleft()
            self.sim.call_later(self.config.cpu.recv_match_ns,
                                self._finish_recv, handle, delivered)
        else:
            self._posted_recvs.setdefault(tag, deque()).append(handle)
        return handle

    def expose_rx_flag(self, wire_tag: int, flag: Tuple[Buffer, int]) -> None:
        """Associate an incoming one-sided wire tag with a local flag word
        the NIC sets on arrival (paper §4.2.5: PGAS-style notification)."""
        self._rx_flags[wire_tag] = flag

    def chain_rx_trigger(self, wire_tag: int, trigger_tag: int) -> None:
        """Chain an arrival to a local trigger: every put landing with
        ``wire_tag`` counts one write toward ``trigger_tag``'s entry --
        exactly a Portals triggered op progressed by a CT event, so
        sequences of operations advance NIC-to-NIC with no CPU or GPU on
        the path."""
        self._rx_chains.setdefault(wire_tag, []).append(trigger_tag)

    def watch_rx(self, wire_tag: int) -> Event:
        """An event that fires when a put with ``wire_tag`` lands here."""
        ev = self.sim.event(f"rxwatch:{wire_tag}")
        self._rx_watchers.setdefault(wire_tag, []).append(ev)
        return ev

    # ------------------------------------------------- triggered operations
    def register_triggered_put(self, tag: int, threshold: int, local_addr: int,
                               nbytes: int, target: str, remote_addr: int,
                               wire_tag: Optional[int] = None,
                               local_flag: Optional[Tuple[Buffer, int]] = None,
                               meta: Optional[Dict[str, Any]] = None) -> TriggerEntry:
        """CPU-side registration of a triggered put (paper Figure 6, step 2).

        Firing happens on the NIC when the tag's counter reaches
        ``threshold`` -- possibly immediately, if early GPU triggers
        already accumulated on a placeholder entry (Section 3.2).
        """
        op = NetworkOp(kind="put", local_addr=local_addr, nbytes=nbytes,
                       target=target, remote_addr=remote_addr, wire_tag=wire_tag,
                       meta=dict(meta or {}))
        handle = PutHandle(self.sim, op, local_flag)
        self._trigger_handles[op.op_id] = handle
        return self.trigger_list.register(op, tag, threshold)

    def register_triggered_fanout(self, tag: int, threshold: int,
                                  puts: List[Dict[str, Any]]) -> TriggerEntry:
        """Register several puts under ONE trigger tag: when the counter
        crosses the threshold, all of them fire (a Portals CT can chain
        any number of triggered operations; used for offloaded-collective
        fan-out).  Each dict takes the post_put keyword arguments
        ``local_addr, nbytes, target, remote_addr[, wire_tag]``."""
        if not puts:
            raise ValueError("fanout needs at least one operation")
        handles: List[PutHandle] = []
        for spec in puts:
            op = NetworkOp(kind="put", local_addr=spec["local_addr"],
                           nbytes=spec["nbytes"], target=spec["target"],
                           remote_addr=spec["remote_addr"],
                           wire_tag=spec.get("wire_tag"))
            handles.append(PutHandle(self.sim, op))
        master = handles[0].op
        self._trigger_handles[master.op_id] = handles
        return self.trigger_list.register(master, tag, threshold)

    def fanout_handles(self, entry: TriggerEntry) -> List[PutHandle]:
        handles = self._registered(entry)
        if not isinstance(handles, list):
            raise ValueError(f"trigger entry tag={entry.tag} is not a fanout")
        return handles

    def handle_for(self, entry: TriggerEntry) -> PutHandle:
        """The PutHandle of a registered triggered put (a fan-out's
        first), until the entry is freed."""
        handle = self._registered(entry)
        if isinstance(handle, list):
            return handle[0]
        if not isinstance(handle, PutHandle):
            raise ValueError(f"trigger entry tag={entry.tag} is not a put")
        return handle

    def _registered(self, entry: TriggerEntry) -> Any:
        if entry.op is None:
            raise ValueError(f"trigger entry tag={entry.tag} is an unarmed placeholder")
        if entry.freed:
            raise ValueError(f"trigger entry tag={entry.tag} was freed; its "
                             "handle went with it")
        return self._trigger_handles[entry.op.op_id]

    def _on_trigger_free(self, entry: TriggerEntry) -> None:
        self._trigger_handles.pop(entry.op.op_id, None)

    def _on_trigger_fire(self, entry: TriggerEntry) -> None:
        op = entry.op
        assert op is not None
        if self._active_overrides:
            # Section 3.4 dynamic communication: the firing write supplies
            # some operation fields.
            for fieldname, value in self._active_overrides.items():
                setattr(op, fieldname, value)
        if self.tracer.enabled:
            self.tracer.point(self.sim.now, self.node, "nic", "trigger-fire",
                              tag=entry.tag, op=op.op_id)
        if op.kind == "get":
            self.sim.call_later(self.nc.command_process_ns, self._issue_get, op)
            return
        handles = self._trigger_handles[op.op_id]
        for handle in handles if isinstance(handles, list) else (handles,):
            self._initiate(handle, extra_delay=0)

    # ------------------------------------------------------------ data path
    def _initiate(self, handle: PutHandle, extra_delay: int,
                  staged: bool = False) -> None:
        """Start the wire transfer for a put/send after NIC processing.

        ``staged`` operations (pre-posted, doorbell-initiated) skip
        command decode and DMA setup -- both were done at post time.
        """
        delay = extra_delay
        if not staged:
            delay += self.nc.command_process_ns + self.nc.dma_setup_ns
        if self._put_probes:
            for probe in self._put_probes:
                probe(self.node, "initiate", handle, self.sim.now)
        self.sim.call_later(delay, self._launch, handle)

    def _launch(self, handle: PutHandle) -> None:
        op = handle.op
        # DMA-read the payload.  This is the moment the paper's memory
        # model discussion bites: the GPU must have released the buffer at
        # system scope or this read records a hazard.
        buf, off = self.space.resolve(op.local_addr, max(op.nbytes, 1))
        if op.nbytes:
            self.mem.record_read(self.sim.now, Agent.NIC, buf,
                                 lo=off, hi=off + op.nbytes)
            payload = self.space.dma_read_at(buf, off, op.nbytes)
        else:
            payload = b""
        if self._put_probes:
            for probe in self._put_probes:
                probe(self.node, "send-dma-read", handle, self.sim.now)
        kind = MessageKind.SEND if op.kind == "send" else MessageKind.PUT
        msg = Message(src=self.node, dst=op.target, nbytes=op.nbytes, kind=kind,
                      payload=payload, remote_addr=op.remote_addr,
                      tag=op.wire_tag, meta=dict(op.meta))
        if self.tracer.enabled:
            self.tracer.begin(self.sim.now, self.node, "nic", "put", op=op.op_id)
        self._transmit(msg, handle)
        self.stats["tx_ops"] += 1

    def _on_sent(self, handle: Any) -> None:
        if handle.__class__ is not PutHandle:
            return
        # Local completion: send buffer is reusable once fully
        # serialized onto the wire; transmit() just reserved our
        # egress port, so its busy_until is exactly this message's
        # serialization end.  (Under the reliable transport this runs
        # at the *first* transmission -- possibly later than post
        # time if the go-back-N window was full.)
        local_time = self.fabric._egress[self.node].busy_until
        self.sim.call_later(
            max(0, local_time - self.sim.now) + self.nc.completion_write_ns,
            self._local_complete, handle)

    def _on_outcome(self, handle: Any, ok: bool, value: Any) -> None:
        if handle.__class__ is PutHandle:
            self._on_put_outcome(handle, ok, value)
        elif handle is not None and not ok:
            # Reliable transport gave up on a get request: surface the
            # TransportError on the get handle instead of hanging.
            if (self._pending_gets.pop(handle.op.op_id, None) is not None
                    and not handle.complete.triggered):
                handle.complete.fail(value)

    def _on_put_outcome(self, handle: PutHandle, ok: bool, value: Any) -> None:
        if self.tracer.enabled:
            self.tracer.end(self.sim.now, self.node, "nic", "put",
                            op=handle.op.op_id)
        if handle._delivered_state != _PENDING:
            return
        if ok:
            handle._complete_delivered(True, value)
            if self._put_probes:
                for probe in self._put_probes:
                    probe(self.node, "delivered", handle, self.sim.now)
        else:
            # Transport retry budget exhausted: structured failure on
            # the handle, never a silent hang.  A send refused outright
            # (peer already declared dead) also fails local completion
            # -- nothing was ever serialized.
            handle._complete_delivered(False, value)
            if handle._local_state == _PENDING:
                handle._complete_local(False, value)

    def _local_complete(self, handle: PutHandle) -> None:
        if self._put_probes:
            for probe in self._put_probes:
                probe(self.node, "local-complete", handle, self.sim.now)
        if handle.local_flag is not None:
            buf, off = handle.local_flag
            buf.view(dtype="uint32", count=1, offset=off)[0] = 1
            self.mem.record_write(self.sim.now, Agent.NIC, buf)
        if handle._local_state == _PENDING:
            handle._complete_local(True, self.sim.now)

    # -------------------------------------------------------------- receive
    def _handle_rx(self, delivered: DeliveredMessage) -> None:
        msg = delivered.message
        if delivered.corrupted:
            # CRC failure at the rx pipeline.  With the reliable transport
            # armed this is unreachable (its fabric filter NACKs and
            # consumes the message first); without it the payload is
            # simply lost, as on a real lossy fabric with no retry layer.
            self.stats["rx_corrupt"] += 1
            self.tracer.point(self.sim.now, self.node, "nic", "rx-corrupt",
                              msg_id=msg.msg_id, src=msg.src)
            return
        if msg.kind is MessageKind.PUT:
            self._rx_put(delivered)
        elif msg.kind is MessageKind.SEND:
            self._rx_send(delivered)
        elif msg.kind is MessageKind.GET_REQUEST:
            self._rx_get_request(delivered)
        elif msg.kind is MessageKind.GET_REPLY:
            self._rx_get_reply(delivered)
        # ACKs carry no payload handling in this model.

    def _rx_put(self, delivered: DeliveredMessage) -> None:
        msg = delivered.message
        self.stats["rx_puts"] += 1
        if msg.remote_addr is None:
            raise ValueError(f"put without remote address: {msg!r}")
        if msg.nbytes:
            buf, off = self.space.resolve(msg.remote_addr, msg.nbytes)
            self.space.dma_write_at(buf, off, msg.payload or b"\x00" * msg.nbytes)
            self.mem.record_write(self.sim.now, Agent.NIC, buf)
        self._notify_rx(msg.tag, delivered)

    def _notify_rx(self, wire_tag: Optional[int], delivered: DeliveredMessage) -> None:
        if wire_tag is None:
            return
        flag = self._rx_flags.get(wire_tag)
        if flag is not None:
            self.sim.call_later(self.nc.completion_write_ns,
                                self._set_rx_flag, flag)
        for ev in self._rx_watchers.pop(wire_tag, []):
            ev.succeed(delivered)
        for trigger_tag in self._rx_chains.get(wire_tag, ()):
            # Internal chaining shares the trigger FIFO (ordering) but
            # skips the MMIO propagation an external write would pay.
            self.sim.call_later(0, self._fifo_push, (trigger_tag, None))

    def _set_rx_flag(self, flag: Tuple[Buffer, int]) -> None:
        buf, off = flag
        arr = buf.view(dtype="uint32", count=1, offset=off)
        arr[0] = arr[0] + 1
        self.mem.record_write(self.sim.now, Agent.NIC, buf)

    def _rx_send(self, delivered: DeliveredMessage) -> None:
        msg = delivered.message
        self.stats["rx_sends"] += 1
        tag = msg.tag if msg.tag is not None else -1
        queue = self._posted_recvs.get(tag)
        if queue:
            handle = queue.popleft()
            self.sim.call_later(self.config.cpu.recv_match_ns,
                                self._finish_recv, handle, delivered)
        else:
            self._unexpected.setdefault(tag, deque()).append(delivered)

    def _finish_recv(self, handle: RecvHandle, delivered: DeliveredMessage) -> None:
        msg = delivered.message
        if msg.nbytes > handle.nbytes:
            handle.complete.fail(
                ValueError(f"recv overflow: {msg.nbytes} > {handle.nbytes}")
            )
            return
        if msg.nbytes:
            buf, off = self.space.resolve(handle.local_addr, msg.nbytes)
            self.space.dma_write_at(buf, off, msg.payload or b"")
            self.mem.record_write(self.sim.now, Agent.NIC, buf)
        handle.complete.succeed(delivered)

    def _rx_get_request(self, delivered: DeliveredMessage) -> None:
        msg = delivered.message
        self.stats["rx_gets"] += 1
        self.sim.call_later(self.nc.command_process_ns + self.nc.dma_setup_ns,
                            self._send_get_reply, msg)

    def _send_get_reply(self, msg: Message) -> None:
        nbytes = msg.meta["nbytes"]
        buf, off = self.space.resolve(msg.remote_addr, max(nbytes, 1))
        payload = self.space.dma_read_at(buf, off, nbytes) if nbytes else b""
        self.mem.record_read(self.sim.now, Agent.NIC, buf,
                             lo=off, hi=off + max(nbytes, 1))
        reply = Message(src=self.node, dst=msg.src, nbytes=nbytes,
                        kind=MessageKind.GET_REPLY, payload=payload,
                        remote_addr=msg.meta["reply_addr"],
                        meta={"op_id": msg.meta["op_id"]})
        self._transmit(reply)

    def _rx_get_reply(self, delivered: DeliveredMessage) -> None:
        msg = delivered.message
        handle = self._pending_gets.pop(msg.meta["op_id"], None)
        if handle is None:
            raise RuntimeError(f"get reply for unknown op {msg.meta['op_id']}")
        if msg.nbytes:
            buf, off = self.space.resolve(msg.remote_addr, msg.nbytes)
            self.space.dma_write_at(buf, off, msg.payload or b"")
            self.mem.record_write(self.sim.now, Agent.NIC, buf)
        self.sim.call_later(self.nc.completion_write_ns,
                            self._complete_get, handle, delivered)

    @staticmethod
    def _complete_get(handle: GetHandle, delivered: DeliveredMessage) -> None:
        handle.complete.succeed(delivered)
