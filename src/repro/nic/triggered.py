"""Triggered-operation semantics (paper Sections 3.1-3.2).

A :class:`TriggerEntry` is the NIC-resident record the paper describes:

* **Network Operation** -- full description of the deferred operation;
* **Tag** -- unique identifier written by the GPU;
* **Counter** -- number of matching tag writes collected so far;
* **Threshold** -- writes required before the operation fires.

:class:`TriggerList` owns the entries (through one of the
:mod:`~repro.nic.lookup` structures) and implements both directions of the
**relaxed synchronization model** (Section 3.2):

* a GPU tag write with no matching entry allocates a *placeholder*
  (counter only, no operation/threshold) instead of being dropped;
* a CPU registration that finds a placeholder adopts its counter and, if
  the counter already meets the threshold, fires immediately.

Each entry fires **exactly once**; this invariant is property-tested
against arbitrary interleavings of registration and trigger writes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.probes import Probes

__all__ = ["NetworkOp", "TriggerEntry", "TriggerList"]

_op_ids = itertools.count(1)


@dataclass(slots=True)
class NetworkOp:
    """The deferred network operation held in a trigger entry.

    Mirrors the paper's field list: "a pointer to the memory resident send
    buffer, length, target id, etc.".
    """

    kind: str                 # "put" | "get" | "send"
    local_addr: int
    nbytes: int
    target: str
    remote_addr: Optional[int] = None
    #: delivered to the target NIC to locate the matching completion flag
    wire_tag: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    op_id: int = field(default_factory=lambda: next(_op_ids))

    def __post_init__(self) -> None:
        if self.kind not in ("put", "get", "send"):
            raise ValueError(f"unsupported network op kind {self.kind!r}")
        if self.nbytes < 0:
            raise ValueError("negative operation size")


@dataclass(slots=True)
class TriggerEntry:
    """One row of the NIC trigger list."""

    tag: int
    op: Optional[NetworkOp] = None
    threshold: Optional[int] = None
    counter: int = 0
    fired: bool = False
    freed: bool = False

    @property
    def armed(self) -> bool:
        """True once the CPU has supplied the operation and threshold."""
        return self.op is not None and self.threshold is not None

    @property
    def is_placeholder(self) -> bool:
        return not self.armed

    @property
    def ready(self) -> bool:
        return (self.armed and not self.fired
                and self.counter >= self.threshold)  # type: ignore[operator]


class TriggerList:
    """The NIC's list of registered/placeholder trigger entries."""

    def __init__(self, lookup, on_fire: Callable[[TriggerEntry], None],
                 on_free: Optional[Callable[[TriggerEntry], None]] = None, *,
                 node: str, probes: Probes):
        """``lookup`` is a :mod:`repro.nic.lookup` structure; ``on_fire``
        is invoked exactly once per entry when it becomes ready, and
        ``on_free`` (if given) when :meth:`free` removes it.  The list
        emits on ``probes.trigger`` as ``node``."""
        self.node = node
        self._trigger_probes = probes.trigger
        self.lookup = lookup
        self.on_fire = on_fire
        self.on_free = on_free
        #: Fired-but-not-yet-freed entries, oldest first.  ``free`` purges
        #: its entry (lazily compacted), so persistent-kernel runs that
        #: register/fire/free in a loop keep this bounded by the number of
        #: entries still awaiting their free.
        self.fired_log: List[TriggerEntry] = []
        self._freed_in_log = 0
        self.stats = {"registered": 0, "triggers": 0, "placeholders": 0,
                      "fired": 0, "freed": 0}

    def __len__(self) -> int:
        return len(self.lookup)

    # ----------------------------------------------------------------- CPU
    def register(self, op: NetworkOp, tag: int, threshold: int) -> TriggerEntry:
        """CPU-side registration of a triggered operation (paper step 1).

        Adopts an existing placeholder's counter if the GPU got here first
        (relaxed synchronization), firing immediately when already met.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        entry = self.lookup.find(tag)
        if entry is not None:
            if entry.armed and not entry.fired:
                raise ValueError(f"tag {tag} already registered and pending")
            if entry.fired:
                raise ValueError(f"tag {tag} already fired; free it before reuse")
            # Placeholder allocated by an early GPU trigger: arm it.
            entry.op = op
            entry.threshold = threshold
        else:
            entry = TriggerEntry(tag=tag, op=op, threshold=threshold)
            self.lookup.insert(entry)
        self.stats["registered"] += 1
        if self._trigger_probes:
            for probe in self._trigger_probes:
                probe(self.node, "register", entry)
        if entry.ready:
            self._fire(entry)
        return entry

    # ----------------------------------------------------------------- GPU
    def trigger(self, tag: int) -> TriggerEntry:
        """A tag write popped from the trigger-address FIFO (paper step 3).

        Unknown tags allocate a placeholder entry (Section 3.2) rather
        than erroring.
        """
        entry = self.lookup.find(tag)
        if entry is None:
            entry = TriggerEntry(tag=tag)
            self.lookup.insert(entry)
            self.stats["placeholders"] += 1
        entry.counter += 1
        self.stats["triggers"] += 1
        if self._trigger_probes:
            for probe in self._trigger_probes:
                probe(self.node, "trigger", entry)
        if entry.ready:
            self._fire(entry)
        return entry

    # ------------------------------------------------------------- internal
    def _fire(self, entry: TriggerEntry) -> None:
        assert not entry.fired, "double fire must be impossible"
        entry.fired = True
        self.fired_log.append(entry)
        self.stats["fired"] += 1
        if self._trigger_probes:
            for probe in self._trigger_probes:
                probe(self.node, "fire", entry)
        self.on_fire(entry)

    def free(self, entry: TriggerEntry) -> None:
        """Remove a *consumed* entry, releasing its lookup slot.

        Freeing an entry that has not fired would silently drop a
        registered network operation (or a placeholder's accumulated
        trigger counts), so it raises instead.
        """
        if not entry.fired:
            state = "armed" if entry.armed else "placeholder"
            raise ValueError(
                f"cannot free {state} entry tag={entry.tag}: it has not "
                "fired (freeing would drop a pending operation)")
        self.lookup.remove(entry)
        entry.freed = True
        self._freed_in_log += 1
        self.stats["freed"] += 1
        # Amortized-O(1) purge: compact once half the log is freed, so the
        # log never holds more than ~2x the live fired entries.
        if self._freed_in_log * 2 >= len(self.fired_log):
            self.fired_log = [e for e in self.fired_log if not e.freed]
            self._freed_in_log = 0
        if self.on_free is not None:
            self.on_free(entry)
        if self._trigger_probes:
            for probe in self._trigger_probes:
                probe(self.node, "free", entry)

    # --------------------------------------------------------------- query
    def entry(self, tag: int) -> Optional[TriggerEntry]:
        return self.lookup.find(tag)

    def pending(self) -> List[TriggerEntry]:
        return [e for e in self.lookup if not e.fired]
