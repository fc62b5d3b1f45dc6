"""Finite per-switch output-port queues with pluggable discipline.

The base fabric reserves switch output ports as unbounded FIFOs: every
arrival eventually gets a slot, however deep the backlog.  Arming a
:class:`SwitchQueues` on a fabric (:meth:`repro.net.Fabric.enable_queues`)
bounds each output port to :class:`repro.config.QueueConfig.capacity_bytes`
of queued payload and applies a discipline to arrivals:

* ``drop-tail`` -- arrivals that would overflow the capacity are dropped
  (the delivery event simply never fires, exactly like an interposer
  drop, so the reliable transport's retransmit machinery recovers them);
* ``red`` -- random early detection: between ``red_min_bytes`` and
  ``red_max_bytes`` of occupancy an arrival is dropped with probability
  ramping linearly up to ``red_max_prob``; at/above ``red_max_bytes`` it
  is always dropped.  With ``ecn=True`` RED *marks* instead of dropping:
  the congestion bit rides the :class:`~repro.net.fabric.DeliveredMessage`
  to the receiver, which echoes it on ACKs so a pacing transport can back
  off (see :mod:`repro.nic.transport`).  Only the capacity brick wall
  still drops.

Determinism contract (mirrors :class:`repro.faults.FaultPlan`):

* every RED draw comes from a dedicated per-port
  :class:`repro.sim.rng.RandomStreams` substream named
  ``queue.red.<switch>-><next>`` -- adding ports, flows, or faults never
  shifts another port's draws;
* occupancy at or below ``red_min_bytes`` -- in particular the zero-load
  case -- never draws, so an armed-but-uncongested fabric consumes no
  randomness and stays byte-identical to an unarmed one;
* queue drop/mark counters live in :attr:`SwitchQueues.stats`, *not* in
  ``fabric.stats`` (which stays exactly ``{messages, bytes}``).

Occupancy model: each admitted message holds ``nbytes`` of queue space
until its reservation drains off the port (the ``end`` returned by
``_Port.reserve``).  An arrival whose head reaches the port at ``head``
sees the backlog of reservations still draining at that instant -- a
cut-through approximation consistent with the fabric's up-front
reservation timing.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import QueueConfig
from repro.sim.rng import RandomStreams

__all__ = ["SwitchQueues"]


class _PortQueue:
    """Backlog bookkeeping for one switch output port."""

    __slots__ = ("entries", "depth_bytes")

    def __init__(self) -> None:
        #: (drain_end_ns, nbytes), kept in end order (reserve is FIFO).
        self.entries: deque = deque()
        self.depth_bytes = 0

    def prune(self, head_ns: int) -> None:
        """Forget reservations fully drained by ``head_ns``."""
        entries = self.entries
        while entries and entries[0][0] <= head_ns:
            _, nbytes = entries.popleft()
            self.depth_bytes -= nbytes


class SwitchQueues:
    """Per-switch output-port finite queues (see module docstring).

    Armed on a fabric via :meth:`repro.net.Fabric.enable_queues`; the
    fabric consults :meth:`admit` once per switch output port a routed
    message crosses.  Star topologies route entirely at the endpoints
    and never reach this object.
    """

    def __init__(self, config: QueueConfig,
                 streams: Optional[RandomStreams] = None):
        if config.discipline == "red" and streams is None:
            raise ValueError(
                "RED needs a RandomStreams for its seeded marking draws")
        self.config = config
        self._streams = streams
        self._queues: Dict[tuple, _PortQueue] = {}
        self._rngs: Dict[tuple, object] = {}
        #: Monitoring counters -- deliberately *not* folded into
        #: ``fabric.stats`` (pinned to {messages, bytes}).
        self.stats = {"enqueued": 0, "dropped": 0, "ecn_marked": 0,
                      "max_depth_bytes": 0}
        #: Telemetry probes called ``(now_ns, port_key, depth_bytes)``
        #: after every admission -- the :mod:`repro.metrics` attachment
        #: point for queue-depth time series.
        self.probes: List[Callable[[int, tuple, int], None]] = []

    # ------------------------------------------------------------- verdicts
    def red_probability(self, occupancy: int) -> float:
        """RED drop/mark probability for an arrival seeing ``occupancy``
        queued bytes.  Pure (no draw): 0 at/below ``red_min_bytes``,
        linear ramp to ``red_max_prob`` at ``red_max_bytes``, 1 above."""
        cfg = self.config
        if occupancy <= cfg.red_min_bytes:
            return 0.0
        if occupancy >= cfg.red_max_bytes:
            return 1.0
        span = cfg.red_max_bytes - cfg.red_min_bytes
        return cfg.red_max_prob * (occupancy - cfg.red_min_bytes) / span

    def decide(self, key: tuple, occupancy: int, nbytes: int) -> Tuple[bool, bool]:
        """``(drop, mark)`` verdict for an arrival of ``nbytes`` finding
        ``occupancy`` bytes queued at port ``key``."""
        cfg = self.config
        if occupancy + nbytes > cfg.capacity_bytes:
            return True, False
        if cfg.discipline == "red":
            p = self.red_probability(occupancy)
            if p <= 0.0:
                return False, False
            if p < 1.0 and self._rng(key).random() >= p:
                return False, False
            if cfg.ecn:
                return False, True
            return True, False
        return False, False

    # ------------------------------------------------------------ admission
    def admit(self, key: tuple, port, msg, now: int, head: int,
              ser: int) -> Tuple[Optional[int], bool]:
        """Admit ``msg``'s head arriving at output port ``key`` at ``head``.

        Returns ``(head_start, ecn_marked)`` after reserving the port, or
        ``(None, False)`` if the discipline drops the arrival (the caller
        must abandon the transmission: no ingress, no probe)."""
        # Called once per switch hop of every routed message: the prune,
        # the drop-tail verdict and the port reservation are inlined
        # (same arithmetic as _PortQueue.prune, decide and _Port.reserve).
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = _PortQueue()
        entries = q.entries
        if entries and entries[0][0] <= head:
            q.prune(head)
        nbytes = msg.nbytes
        if self.config.discipline == "red":
            drop, mark = self.decide(key, q.depth_bytes, nbytes)
        else:
            drop = q.depth_bytes + nbytes > self.config.capacity_bytes
            mark = False
        if drop:
            self.stats["dropped"] += 1
            return None, False
        start = port.busy_until
        if start < head:
            start = head
        if start < now:
            start = now
        end = port.busy_until = start + ser
        entries.append((end, nbytes))
        q.depth_bytes += nbytes
        self.stats["enqueued"] += 1
        if mark:
            self.stats["ecn_marked"] += 1
        if q.depth_bytes > self.stats["max_depth_bytes"]:
            self.stats["max_depth_bytes"] = q.depth_bytes
        if self.probes:
            for probe in self.probes:
                probe(now, key, q.depth_bytes)
        return start, mark

    # ------------------------------------------------------------ reporting
    def counters(self) -> Dict[str, int]:
        """Non-zero counters (merged into RunRecord transport_counters)."""
        return {f"queue_{k}": v for k, v in self.stats.items() if v}

    def _rng(self, key: tuple):
        rng = self._rngs.get(key)
        if rng is None:
            name = f"queue.red.{key[0]}->{key[1]}"
            rng = self._rngs[key] = self._streams.stream(name)
        return rng
