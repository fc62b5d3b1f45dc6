"""NIC reliable transport: go-back-N windows, ACK/NACK, retransmission.

The fabric model is lossless, so the seed NIC never needed sequence
numbers, timers or retries.  Fault injection (:mod:`repro.faults`)
changes that: messages can be dropped, corrupted or delayed, and the
GPU-TN protocol must keep its exactly-once trigger/delivery semantics
anyway.  This module is the engine that makes it so:

* every *data* message (put / send / get request / get reply) leaving a
  reliability-enabled NIC is stamped with a per-destination **sequence
  number** and held in a bounded **go-back-N window** until cumulatively
  ACKed;
* the receiver accepts exactly the next expected sequence per source --
  duplicates (from retransmission) and gaps (from loss) are discarded
  before they reach the NIC's rx handlers, so payload landing, flag
  bumps and rx-chained trigger counts stay **exactly-once**;
* gaps and CRC failures elicit a **NACK** carrying the expected
  sequence; the sender answers NACKs and **retransmit timeouts**
  (exponential backoff) by resending the whole window in order;
* a retry budget bounds recovery: exhausting it declares the peer dead
  and fails every outstanding and future send to it with a structured
  :class:`TransportError` on the operation's handle -- the simulation
  drains instead of deadlocking.

Completion semantics are unchanged from the lossless model: a handle's
``delivered`` event still fires at the instant the payload is *accepted*
into target memory (the simulator's oracle view), not at ACK receipt;
ACKs exist purely to slide windows and cancel timers.  With zero faults
armed the transport adds only its ACK traffic -- data timing is
untouched.

The NIC is the transport's only client, and the transport builds no
event per send: each window entry carries the NIC's handle, and the
outcome (accepted, or given up on) is handed back to the NIC in a pooled
pop pushed where the oracle delivery event used to be triggered, so it
pops under that event's key.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.config import ReliabilityConfig
from repro.net.fabric import DeliveredMessage
from repro.net.packet import Message, MessageKind
from repro.sim import Timer
from repro.sim.rng import RandomStreams

__all__ = ["ReliableTransport", "SelectiveRepeatTransport", "TransportError",
           "make_transport"]


class TransportError(RuntimeError):
    """Retry budget exhausted: the transport gave up on a peer link.

    Structured so campaign reports and tests can assert on the exact
    failure point instead of string-matching.
    """

    def __init__(self, src: str, dst: str, seq: int, attempts: int):
        self.src = src
        self.dst = dst
        self.seq = seq
        self.attempts = attempts
        super().__init__(
            f"transport {src}->{dst} gave up on seq {seq} after "
            f"{attempts} retransmit rounds")

    def to_dict(self) -> Dict[str, object]:
        return {"src": self.src, "dst": self.dst, "seq": self.seq,
                "attempts": self.attempts}


@dataclass(slots=True)
class _Entry:
    """One unacknowledged data message in a peer's send window."""

    seq: int
    msg: Message
    #: What the NIC sent it for; handed back at first transmission and
    #: with the outcome.
    handle: Any
    sent: bool = False
    #: The outcome has been reported (accepted, or given up on).
    settled: bool = False
    #: Selective-repeat only: SACKed out of order (held for the
    #: cumulative slide, excluded from retransmission).
    acked: bool = False


@dataclass(slots=True)
class _TxState:
    """Sender-side go-back-N state for one destination peer."""

    peer: str
    next_seq: int = 0
    window: Deque[_Entry] = field(default_factory=deque)
    pending: Deque[_Entry] = field(default_factory=deque)
    retries: int = 0
    #: Retransmit timer (:class:`repro.sim.Timer`: one heap entry per
    #: flow, however often ACKs re-arm it).
    timer: Optional[Timer] = None
    dead: bool = False


@dataclass(slots=True)
class _SrTxState(_TxState):
    """Sender-side selective-repeat extras: AIMD congestion window."""

    #: Fractional congestion window (only consulted when pacing is on).
    cwnd: float = 1.0
    #: Cut-once-per-RTT watermark: no further multiplicative decrease
    #: until the window head passes this sequence.
    cut_watermark: int = -1
    #: Last head sequence fast-retransmitted on SACK evidence (one fast
    #: retransmit per hole; the timer covers repeated loss).
    last_fast_retx: int = -1


@dataclass(slots=True)
class _RxState:
    """Receiver-side state for one source peer."""

    expected: int = 0
    #: Last expected-value we NACKed (suppresses NACK storms: one NACK
    #: per distinct gap; the sender's timer covers lost NACKs).
    nacked_for: int = -1


@dataclass(slots=True)
class _SrRxState:
    """Receiver-side selective-repeat state: the reorder buffer."""

    expected: int = 0
    #: Out-of-order arrivals held until the gap below them fills,
    #: keyed by sequence number.
    buffer: Dict[int, DeliveredMessage] = field(default_factory=dict)


class ReliableTransport:
    """Per-NIC reliable-delivery engine (see module docstring).

    Constructed by :meth:`repro.nic.Nic.enable_reliability`; interposes
    on the fabric via an rx filter and announces itself in the fabric's
    transport registry so receivers can complete sender-side oracle
    delivery events.
    """

    def __init__(self, nic, config: ReliabilityConfig):
        self.nic = nic
        self.sim = nic.sim
        self.fabric = nic.fabric
        self.node: str = nic.node
        self.rc = config
        self._tx: Dict[str, _TxState] = {}
        self._rx: Dict[str, _RxState] = {}
        #: Uncontended RTT per (peer, window-head bytes); see _rtt_floor_ns.
        self._rtt_floors: Dict[tuple, int] = {}
        self._transport_probes = nic.sim.probes.transport
        self.stats = {
            "tx_data": 0, "retransmits": 0, "timeouts": 0,
            "acks_tx": 0, "acks_rx": 0, "nacks_tx": 0, "nacks_rx": 0,
            "rx_dups": 0, "rx_gaps": 0, "rx_corrupt": 0,
            "give_ups": 0, "errors": 0,
        }
        #: Retransmit-backoff jitter draws come from a dedicated seeded
        #: substream (``transport.backoff.<node>``), never a shared RNG:
        #: arming faults, queues or background traffic cannot perturb
        #: retransmit timing.  The default jitter of 0 never draws, so
        #: pre-jitter runs are bit-identical.
        self._backoff_rng = (
            RandomStreams(nic.config.seed).stream(f"transport.backoff.{nic.node}")
            if config.backoff_jitter_ns > 0 else None)
        # The NIC is the transport's only client (see send()).
        self._on_sent = nic._on_sent
        self._on_outcome = nic._on_outcome
        self.fabric.register_rx_filter(self.node, self._on_rx)
        self.fabric.transports[self.node] = self

    # ------------------------------------------------------------- send side
    def send(self, msg: Message, handle: Any = None) -> None:
        """Sequence and (eventually) transmit ``msg`` for the NIC's
        ``handle``.

        The first real fabric transmission (window permitting,
        immediately) calls ``nic._on_sent(handle)`` inline -- the NIC
        anchors local-completion timing to actual wire occupancy.  The
        outcome runs ``nic._on_outcome(handle, ok, value)`` in a pop of
        its own, pushed where the oracle delivery event was triggered
        and under its key: the :class:`DeliveredMessage` when the payload
        is accepted at the target, or a :class:`TransportError` if the
        retry budget runs out.
        """
        if msg.kind.is_control:
            raise ValueError(f"control message {msg!r} must bypass the transport")
        st = self._tx_state(msg.dst)
        if st.dead:
            self.stats["errors"] += 1
            self._settle(handle, False, TransportError(
                self.node, msg.dst, st.next_seq, st.retries))
            return
        entry = _Entry(st.next_seq, msg, handle)
        st.next_seq += 1
        msg.seq = entry.seq
        if len(st.window) < self._send_limit(st):
            st.window.append(entry)
            self._tx_entry(st, entry)
        else:
            st.pending.append(entry)

    def _settle(self, handle: Any, ok: bool, value: Any) -> None:
        self.sim.call_later(0, self._on_outcome, handle, ok, value)

    def _send_limit(self, st: _TxState) -> int:
        """Admission limit on in-flight messages (overridden by pacing)."""
        return self.rc.window

    def _tx_state(self, peer: str) -> _TxState:
        st = self._tx.get(peer)
        if st is None:
            self._tx[peer] = st = self._new_tx_state(peer)
            st.timer = Timer(self.sim, self._on_timer, st)
        return st

    def _new_tx_state(self, peer: str) -> _TxState:
        return _TxState(peer)

    def _tx_entry(self, st: _TxState, entry: _Entry) -> None:
        self.fabric.transmit(entry.msg, event=False)
        self.stats["tx_data"] += 1
        if not entry.sent:
            entry.sent = True
            if self._transport_probes:
                for probe in self._transport_probes:
                    probe(self.node, "tx", st.peer, entry.seq, self.sim.now)
            self._on_sent(entry.handle)
        if not st.timer.armed:
            self._arm_timer(st)

    # -------------------------------------------------------------- timers
    def _rtt_floor_ns(self, st: _TxState) -> int:
        """Closed-form uncontended RTT for the window head: data one way,
        cumulative ACK back.  The configured timeout was tuned on the
        paper's single-switch star; on multi-hop topologies (or with
        payloads whose serialization dwarfs 20 us) an unfloored timer
        fires before an ACK could possibly return and every "timeout" is
        spurious -- go-back-N then retransmits the whole healthy window,
        and the dup-suppressed copies re-trip the timer forever."""
        key = (st.peer, st.window[0].msg.nbytes)
        floor = self._rtt_floors.get(key)
        if floor is None:
            net = self.fabric.net
            path = self.fabric.topology.path_latency_ns
            floor = self._rtt_floors[key] = (
                net.serialization_ns(key[1]) + path(self.node, st.peer)
                + net.serialization_ns(self.rc.ack_bytes)
                + path(st.peer, self.node))
        return floor

    def _arm_timer(self, st: _TxState) -> None:
        # RTO >= 2x the path RTT (classic Jacobson floor).  On the star
        # with Table 2 latencies the floor is well under the configured
        # 20 us, so single-switch timing is untouched.
        delay = max(self.rc.timeout_after_retries(st.retries),
                    2 * self._rtt_floor_ns(st))
        if self._backoff_rng is not None:
            delay += int(self._backoff_rng.integers(
                0, self.rc.backoff_jitter_ns + 1))
        st.timer.arm(delay)

    def _disarm_timer(self, st: _TxState) -> None:
        st.timer.cancel()

    def _on_timer(self, st: _TxState) -> None:
        if st.dead or not st.window:
            return
        self.stats["timeouts"] += 1
        self._go_back_n(st, cause="timeout")

    def _go_back_n(self, st: _TxState, cause: str) -> None:
        st.retries += 1
        if st.retries > self.rc.max_retries:
            self._give_up(st)
            return
        base = st.window[0].seq
        self.nic.tracer.point(self.sim.now, self.node, "nic", "retransmit",
                              peer=st.peer, base_seq=base, cause=cause,
                              round=st.retries, in_flight=len(st.window))
        if self._transport_probes:
            for probe in self._transport_probes:
                probe(self.node, "retransmit", st.peer, base, self.sim.now)
        self.stats["retransmits"] += len(st.window)
        for entry in st.window:
            self.fabric.transmit(entry.msg, event=False)
        self._arm_timer(st)

    def _give_up(self, st: _TxState) -> None:
        st.dead = True
        self._disarm_timer(st)
        self.stats["give_ups"] += 1
        entries = list(st.window) + list(st.pending)
        st.window.clear()
        st.pending.clear()
        base = entries[0].seq if entries else st.next_seq
        self.nic.tracer.point(self.sim.now, self.node, "nic", "transport-dead",
                              peer=st.peer, base_seq=base, attempts=st.retries)
        if self._transport_probes:
            for probe in self._transport_probes:
                probe(self.node, "give-up", st.peer, base, self.sim.now)
        for entry in entries:
            self.stats["errors"] += 1
            if not entry.settled:
                entry.settled = True
                self._settle(entry.handle, False, TransportError(
                    self.node, st.peer, entry.seq, st.retries))

    # ----------------------------------------------------------- ack intake
    def _on_ack(self, peer: str, ackseq: int) -> None:
        st = self._tx.get(peer)
        self.stats["acks_rx"] += 1
        if st is None or st.dead:
            return
        progressed = False
        while st.window and st.window[0].seq <= ackseq:
            st.window.popleft()
            progressed = True
        if not progressed:
            return
        st.retries = 0
        while st.pending and len(st.window) < self._send_limit(st):
            entry = st.pending.popleft()
            st.window.append(entry)
            self._tx_entry(st, entry)
        if st.window:
            self._arm_timer(st)
        else:
            self._disarm_timer(st)

    def _on_nack(self, peer: str, wanted: int) -> None:
        st = self._tx.get(peer)
        self.stats["nacks_rx"] += 1
        if st is None or st.dead or not st.window:
            return
        # Cumulative semantics: a NACK for `wanted` also acknowledges
        # everything below it.
        while st.window and st.window[0].seq < wanted:
            st.window.popleft()
        if not st.window:
            self._disarm_timer(st)
            return
        self._go_back_n(st, cause="nack")

    def on_peer_accept(self, peer: str, seq: int,
                       delivered: DeliveredMessage) -> None:
        """Receiver-side notification that our ``seq`` to ``peer`` was
        accepted into target memory: report the outcome to the NIC.
        (Window slide still waits for the wire ACK.)  The window holds
        consecutive sequence numbers, so ``seq`` indexes it."""
        st = self._tx.get(peer)
        if st is None or not st.window:
            return
        i = seq - st.window[0].seq
        if 0 <= i < len(st.window):
            entry = st.window[i]
            if not entry.settled:
                entry.settled = True
                self._settle(entry.handle, True, delivered)

    # ----------------------------------------------------------- recv side
    def _on_rx(self, delivered: DeliveredMessage) -> bool:
        """Fabric rx filter: True lets the NIC's handlers see the message."""
        msg = delivered.message
        if msg.kind is MessageKind.ACK and msg.seq is not None:
            if not delivered.corrupted:
                self._on_ack(msg.src, msg.seq)
            return False
        if msg.kind is MessageKind.NACK:
            if not delivered.corrupted:
                self._on_nack(msg.src, msg.seq)
            return False
        if msg.seq is None:
            # Unsequenced data: the peer runs without reliability; pass
            # through untouched (mixed-mode clusters).
            return True
        rx = self._rx.get(msg.src)
        if rx is None:
            rx = self._rx[msg.src] = _RxState()
        if delivered.corrupted:
            self.stats["rx_corrupt"] += 1
            if self._transport_probes:
                for probe in self._transport_probes:
                    probe(self.node, "corrupt", msg.src, msg.seq, self.sim.now)
            self._maybe_nack(msg.src, rx)
            return False
        if msg.seq == rx.expected:
            rx.expected += 1
            if self._transport_probes:
                for probe in self._transport_probes:
                    probe(self.node, "accept", msg.src, msg.seq, self.sim.now)
            self._send_ack(msg.src, msg.seq)
            sender = self.fabric.transports.get(msg.src)
            if sender is not None:
                sender.on_peer_accept(self.node, msg.seq, delivered)
            return True
        if msg.seq < rx.expected:
            # Retransmitted duplicate: drop before any handler can see it
            # (exactly-once), and re-ACK so the sender resynchronizes.
            self.stats["rx_dups"] += 1
            if self._transport_probes:
                for probe in self._transport_probes:
                    probe(self.node, "dup", msg.src, msg.seq, self.sim.now)
            self._send_ack(msg.src, rx.expected - 1)
            return False
        # Gap: something before this was lost; go-back-N discards the
        # out-of-order arrival entirely.
        self.stats["rx_gaps"] += 1
        if self._transport_probes:
            for probe in self._transport_probes:
                probe(self.node, "gap", msg.src, msg.seq, self.sim.now)
        self._maybe_nack(msg.src, rx)
        return False

    def _send_ack(self, peer: str, ackseq: int) -> None:
        self.stats["acks_tx"] += 1
        self.fabric.transmit(Message(
            src=self.node, dst=peer, nbytes=self.rc.ack_bytes,
            kind=MessageKind.ACK, seq=ackseq), event=False)

    def _maybe_nack(self, peer: str, rx: _RxState) -> None:
        if rx.nacked_for == rx.expected:
            return  # already reported this gap; the sender's timer backs us up
        rx.nacked_for = rx.expected
        self.stats["nacks_tx"] += 1
        self.nic.tracer.point(self.sim.now, self.node, "nic", "nack",
                              peer=peer, wanted=rx.expected)
        self.fabric.transmit(Message(
            src=self.node, dst=peer, nbytes=self.rc.ack_bytes,
            kind=MessageKind.NACK, seq=rx.expected), event=False)

    # ------------------------------------------------------------- helpers
    def flows(self) -> Dict[str, Dict[str, int]]:
        """Introspection for monitors/tests: per-peer sender state."""
        return {
            peer: {"next_seq": st.next_seq,
                   "in_flight": len(st.window) + len(st.pending),
                   "dead": int(st.dead)}
            for peer, st in sorted(self._tx.items())
        }


class SelectiveRepeatTransport(ReliableTransport):
    """Selective-repeat ARQ with SACK and optional AIMD pacing.

    Same lifecycle, probes and exactly-once guarantees as the go-back-N
    engine, but loss recovery retransmits *only* what is missing:

    * the receiver keeps a **reorder buffer** -- out-of-order arrivals
      are held (never discarded) and delivered to the NIC's handlers in
      sequence order the instant the gap below them fills, so acceptance
      stays exactly-once and exactly-in-order
      (:class:`~repro.validate.monitors.ReliableDeliveryMonitor` holds);
    * every ACK is a **SACK**: cumulative highest-in-order sequence plus
      the sorted list of buffered out-of-order sequences in
      ``Message.meta["sack"]``.  SACKed window entries are excluded from
      retransmission; SACK evidence above an unSACKed window head
      triggers one **fast retransmit** of the head per hole;
    * retransmit timeouts resend only the unSACKed window entries;
    * with ``ReliabilityConfig.pacing`` on, an **AIMD congestion
      window** (floor/ceiling from config) gates admission: +1 MSS per
      window of clean cumulative progress, halved (at most once per
      in-flight window) on an **ECN echo** -- receivers copy the
      :class:`~repro.net.fabric.DeliveredMessage` congestion bit set by
      RED+ECN switch queues into ``meta["ecn"]`` on the ACK -- or on a
      retransmit timeout.

    Selected via ``ReliabilityConfig(mode="selective-repeat")``; see
    :func:`make_transport`.
    """

    def __init__(self, nic, config: ReliabilityConfig):
        super().__init__(nic, config)
        self.stats.update({"sacked": 0, "fast_retransmits": 0,
                           "rx_buffered": 0, "cwnd_cuts": 0})

    # ------------------------------------------------------------- send side
    def _new_tx_state(self, peer: str) -> _SrTxState:
        return _SrTxState(peer, cwnd=float(self.rc.effective_cwnd_ceiling))

    def _send_limit(self, st: _TxState) -> int:
        if not self.rc.pacing:
            return self.rc.window
        return max(self.rc.cwnd_floor, min(self.rc.window, int(st.cwnd)))

    def _cwnd_cut(self, st: _SrTxState, cause: str) -> None:
        """Multiplicative decrease, at most once per in-flight window."""
        if not self.rc.pacing:
            return
        if st.window and st.window[0].seq < st.cut_watermark:
            return  # still reacting to the previous congestion signal
        st.cut_watermark = st.next_seq
        st.cwnd = max(float(self.rc.cwnd_floor), st.cwnd / 2.0)
        self.stats["cwnd_cuts"] += 1
        self.nic.tracer.point(self.sim.now, self.node, "nic", "cwnd-cut",
                              peer=st.peer, cause=cause, cwnd=int(st.cwnd))

    # -------------------------------------------------------------- timers
    def _on_timer(self, st: _SrTxState) -> None:
        if st.dead or not st.window:
            return
        self.stats["timeouts"] += 1
        st.retries += 1
        if st.retries > self.rc.max_retries:
            self._give_up(st)
            return
        self._cwnd_cut(st, cause="timeout")
        # Selective repeat: resend only the unSACKed entries.  If every
        # entry is SACKed the cumulative ACK itself was lost -- resend
        # the head; the receiver dup-detects and re-ACKs.
        targets = [e for e in st.window if not e.acked] or [st.window[0]]
        base = st.window[0].seq
        self.nic.tracer.point(self.sim.now, self.node, "nic", "retransmit",
                              peer=st.peer, base_seq=base, cause="timeout",
                              round=st.retries, in_flight=len(targets))
        if self._transport_probes:
            for probe in self._transport_probes:
                probe(self.node, "retransmit", st.peer, base, self.sim.now)
        self.stats["retransmits"] += len(targets)
        for entry in targets:
            self.fabric.transmit(entry.msg, event=False)
        self._arm_timer(st)

    # ----------------------------------------------------------- ack intake
    def _on_sack(self, peer: str, ackseq: int,
                 sack: Optional[List[int]], ecn: bool) -> None:
        st = self._tx.get(peer)
        self.stats["acks_rx"] += 1
        if st is None or st.dead:
            return
        newly_acked = 0
        while st.window and st.window[0].seq <= ackseq:
            st.window.popleft()
            newly_acked += 1
        if sack:
            sackset = set(sack)
            for entry in st.window:
                if not entry.acked and entry.seq in sackset:
                    entry.acked = True
                    self.stats["sacked"] += 1
        if ecn:
            self._cwnd_cut(st, cause="ecn")
        elif newly_acked and self.rc.pacing:
            # Additive increase: ~ +1 message per window of clean progress.
            st.cwnd = min(float(self.rc.effective_cwnd_ceiling),
                          st.cwnd + newly_acked / max(st.cwnd, 1.0))
        if newly_acked:
            st.retries = 0
        # SACK evidence above an unSACKed head means the head (at least)
        # is missing at the receiver: fast-retransmit it, once per hole.
        if (sack and st.window and not st.window[0].acked
                and max(sack) > st.window[0].seq):
            head = st.window[0]
            if st.last_fast_retx != head.seq:
                st.last_fast_retx = head.seq
                self.stats["fast_retransmits"] += 1
                if self._transport_probes:
                    for probe in self._transport_probes:
                        probe(self.node, "retransmit", peer, head.seq, self.sim.now)
                self.nic.tracer.point(self.sim.now, self.node, "nic",
                                      "fast-retransmit", peer=peer,
                                      seq=head.seq)
                self.fabric.transmit(head.msg, event=False)
        while st.pending and len(st.window) < self._send_limit(st):
            entry = st.pending.popleft()
            st.window.append(entry)
            self._tx_entry(st, entry)
        if not st.window:
            self._disarm_timer(st)
        elif newly_acked:
            self._arm_timer(st)

    # ----------------------------------------------------------- recv side
    def _on_rx(self, delivered: DeliveredMessage) -> bool:
        msg = delivered.message
        if msg.kind is MessageKind.ACK and msg.seq is not None:
            if not delivered.corrupted:
                meta = msg.meta
                self._on_sack(msg.src, msg.seq, meta.get("sack"),
                              bool(meta.get("ecn")))
            return False
        if msg.kind is MessageKind.NACK:
            # Mixed-mode defense (a go-back-N receiver peer): honor the
            # cumulative semantics via the base engine.
            if not delivered.corrupted:
                self._on_nack(msg.src, msg.seq)
            return False
        if msg.seq is None:
            return True
        rx = self._rx.get(msg.src)
        if rx is None:
            rx = self._rx[msg.src] = _SrRxState()
        if delivered.corrupted:
            self.stats["rx_corrupt"] += 1
            if self._transport_probes:
                for probe in self._transport_probes:
                    probe(self.node, "corrupt", msg.src, msg.seq, self.sim.now)
            self._sr_ack(msg.src, rx, ecn=False)
            return False
        if msg.seq < rx.expected or msg.seq in rx.buffer:
            # Retransmitted duplicate: drop before any handler sees it
            # (exactly-once), re-SACK so the sender resynchronizes.
            self.stats["rx_dups"] += 1
            if self._transport_probes:
                for probe in self._transport_probes:
                    probe(self.node, "dup", msg.src, msg.seq, self.sim.now)
            self._sr_ack(msg.src, rx, ecn=delivered.ecn)
            return False
        if msg.seq == rx.expected:
            if not rx.buffer:
                # Common in-order case: identical flow to go-back-N.
                rx.expected += 1
                if self._transport_probes:
                    for probe in self._transport_probes:
                        probe(self.node, "accept", msg.src, msg.seq, self.sim.now)
                self._sr_ack(msg.src, rx, ecn=delivered.ecn)
                sender = self.fabric.transports.get(msg.src)
                if sender is not None:
                    sender.on_peer_accept(self.node, msg.seq, delivered)
                return True
            # Gap filled with buffered successors waiting: the whole run
            # must reach the NIC's handlers in sequence order.  The
            # filter phase runs *before* the fabric dispatches handlers
            # for the current message, so we consume the delivery and
            # dispatch the in-order chain ourselves.
            chain = [delivered]
            ecn_seen = delivered.ecn
            rx.expected += 1
            while rx.expected in rx.buffer:
                nxt = rx.buffer.pop(rx.expected)
                chain.append(nxt)
                ecn_seen = ecn_seen or nxt.ecn
                rx.expected += 1
            handlers = self._rx_handler_list()
            sender = self.fabric.transports.get(msg.src)
            for d in chain:
                if self._transport_probes:
                    for probe in self._transport_probes:
                        probe(self.node, "accept", msg.src, d.message.seq, self.sim.now)
                for handler in handlers:
                    handler(d)
                if sender is not None:
                    sender.on_peer_accept(self.node, d.message.seq, d)
            self._sr_ack(msg.src, rx, ecn=ecn_seen)
            return False
        # Out of order above a gap: hold it (selective repeat's whole
        # point) and SACK so the sender repairs just the hole.
        self.stats["rx_buffered"] += 1
        if self._transport_probes:
            for probe in self._transport_probes:
                probe(self.node, "buffer", msg.src, msg.seq, self.sim.now)
        rx.buffer[msg.seq] = delivered
        self._sr_ack(msg.src, rx, ecn=delivered.ecn)
        return False

    def _rx_handler_list(self) -> List[Callable[[DeliveredMessage], None]]:
        return list(self.fabric._rx_handlers[self.node])

    def _sr_ack(self, peer: str, rx: _SrRxState, ecn: bool) -> None:
        self.stats["acks_tx"] += 1
        meta: Dict[str, object] = {}
        if rx.buffer:
            meta["sack"] = sorted(rx.buffer)
        if ecn:
            meta["ecn"] = True
        self.fabric.transmit(Message(
            src=self.node, dst=peer, nbytes=self.rc.ack_bytes,
            kind=MessageKind.ACK, seq=rx.expected - 1, meta=meta),
            event=False)


def make_transport(nic, config: ReliabilityConfig) -> ReliableTransport:
    """Construct the ARQ engine :class:`ReliabilityConfig.mode` selects."""
    if config.mode == "selective-repeat":
        return SelectiveRepeatTransport(nic, config)
    return ReliableTransport(nic, config)
