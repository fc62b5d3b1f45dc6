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
until its reservation drains off the port (the reservation's end, the
port's new ``busy_until``).  An arrival whose head reaches the port at
``head`` sees the backlog of reservations still draining at that instant
-- a cut-through approximation consistent with the fabric's up-front
reservation timing.

The queue state lives on the port: each switch output
:class:`repro.net.fabric.Port` holds its own backlog, depth and RED
stream, so an admission reaches its queue through the port that the
fabric's per-pair plan already holds, with no lookup by
``(switch, next)`` key.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from repro.config import QueueConfig
from repro.sim.probes import Probes
from repro.sim.rng import RandomStreams

__all__ = ["SwitchQueues"]


class SwitchQueues:
    """Per-switch output-port finite queues (see module docstring).

    Armed on a fabric via :meth:`repro.net.Fabric.enable_queues`; the
    fabric consults :meth:`admit` once per switch output port a routed
    message crosses.  Star topologies route entirely at the endpoints
    and never reach this object.
    """

    def __init__(self, config: QueueConfig,
                 streams: Optional[RandomStreams] = None, *, probes: Probes):
        if config.discipline == "red" and streams is None:
            raise ValueError(
                "RED needs a RandomStreams for its seeded marking draws")
        self.config = config
        self._streams = streams
        self._red = config.discipline == "red"
        #: Monitoring counters -- deliberately *not* folded into
        #: ``fabric.stats`` (pinned to {messages, bytes}).
        self.stats = {"enqueued": 0, "dropped": 0, "ecn_marked": 0,
                      "max_depth_bytes": 0}
        self._admit_probes = probes.admit

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

    # ------------------------------------------------------------ admission
    def admit(self, port, msg, now: int, head: int,
              ser: int) -> Tuple[Optional[int], bool]:
        """Admit ``msg``'s head arriving at switch output ``port`` at ``head``.

        Returns ``(head_start, ecn_marked)`` after reserving the port, or
        ``(None, False)`` if the discipline drops the arrival (the caller
        must abandon the transmission: no ingress, no probe)."""
        # Called once per switch hop of every routed message, so the
        # backlog prune and the verdict are inline.
        entries = port.backlog
        if entries is None:
            entries = port.backlog = deque()
        elif entries and entries[0][0] <= head:
            depth = port.depth_bytes
            while entries and entries[0][0] <= head:
                depth -= entries.popleft()[1]
            port.depth_bytes = depth
        nbytes = msg.nbytes
        depth = port.depth_bytes
        cfg = self.config
        stats = self.stats
        if depth + nbytes > cfg.capacity_bytes:
            stats["dropped"] += 1
            return None, False
        mark = False
        if self._red and depth > cfg.red_min_bytes:
            # Only a probability strictly between 0 and 1 draws.
            p = self.red_probability(depth)
            if p > 0.0 and (p >= 1.0 or self._draw(port) < p):
                if not cfg.ecn:
                    stats["dropped"] += 1
                    return None, False
                mark = True
        start = port.reserve(now, ser, head)
        entries.append((port.busy_until, nbytes))
        depth = port.depth_bytes = depth + nbytes
        stats["enqueued"] += 1
        if mark:
            stats["ecn_marked"] += 1
        if depth > stats["max_depth_bytes"]:
            stats["max_depth_bytes"] = depth
        if self._admit_probes:
            for probe in self._admit_probes:
                probe(now, port.key, depth)
        return start, mark

    def _draw(self, port) -> float:
        """One RED draw from the port's ``queue.red.<switch>-><next>``
        stream, created on the port's first draw."""
        rng = port.rng
        if rng is None:
            switch, nxt = port.key
            rng = port.rng = self._streams.stream(f"queue.red.{switch}->{nxt}")
        return rng.random()

    # ------------------------------------------------------------ reporting
    def counters(self) -> Dict[str, int]:
        """Non-zero counters (merged into RunRecord transport_counters)."""
        return {f"queue_{k}": v for k, v in self.stats.items() if v}
