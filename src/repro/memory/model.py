"""Scoped, relaxed memory-model visibility tracking.

Section 4.2.6 of the paper: GPU stores are not visible to other agents
(CPU, NIC) until published by a *system-scope release* fence or performed
as system-scope atomics; conversely the GPU must *acquire* at system scope
to observe NIC writes.  Getting this wrong in a real system produces the
correctness bugs reported for some GPU Native Networking stacks [GPUrdma].

We model visibility symbolically rather than duplicating data per cache:
each buffer range carries a monotonically increasing *write version* per
writing agent plus a *published version*; a read by a different agent that
precedes publication is a :class:`MemoryHazard`.  Hazards are recorded
(and optionally raised) -- the test suite asserts that the GPU-TN kernel
API never produces one, and that deliberately omitting the fence does.

Spin-waits re-read the same flag word thousands of times, so
:meth:`ScopedMemoryModel.record_read` keeps a *clean-read memo* per
buffer.  Each buffer state carries a ``version`` that every write, and
every release by an agent that wrote the buffer, bumps.  A read with the
same ``(agent, scope, order, lo, hi)`` as one found clean at the current
version returns at once.  The memo is exact: between version bumps the
written, published and dirty state is frozen, and the only other
mutation -- an acquire -- raises observed versions, which can clear a
hazard but never create one.  Hazardous reads are never memoized, so
each one is still logged.

The same version bump is what a sleeping spin waits for:
:meth:`ScopedMemoryModel.watch` registers a one-shot wake-up on a
buffer, called by the next write or version-bumping release.  Until
then every re-read of the flag would be a memo hit, which is why a
watched spin may skip them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.memory.address_space import Buffer

__all__ = ["Agent", "MemoryHazard", "MemoryOrder", "Scope", "ScopedMemoryModel"]


class Agent(str, enum.Enum):
    """A memory-system observer."""

    CPU = "cpu"
    GPU = "gpu"
    NIC = "nic"


class Scope(enum.IntEnum):
    """Synchronization scope (subset of the OpenCL 2.0 hierarchy)."""

    WORK_GROUP = 1
    DEVICE = 2
    SYSTEM = 3  # memory_scope_all_svm_devices


class MemoryOrder(str, enum.Enum):
    RELAXED = "relaxed"
    ACQUIRE = "acquire"
    RELEASE = "release"
    ACQ_REL = "acq_rel"
    SEQ_CST = "seq_cst"


@dataclass(frozen=True)
class MemoryHazard:
    """A cross-agent read that may observe stale data."""

    time: int
    reader: Agent
    writer: Agent
    buffer: str
    detail: str

    def __str__(self) -> str:
        return (f"t={self.time}: {self.reader.value} read of {self.buffer!r} may be stale "
                f"(unpublished {self.writer.value} writes): {self.detail}")


class StaleReadError(RuntimeError):
    """Raised in strict mode when a hazardous read occurs."""


@dataclass
class _BufferState:
    # Latest write version per agent, and the version each has published
    # to system scope.
    writes: Dict[Agent, int] = field(default_factory=dict)
    published: Dict[Agent, int] = field(default_factory=dict)
    # Version each reader has acquired (observed) at system scope.
    acquired: Dict[Agent, Dict[Agent, int]] = field(default_factory=dict)
    # Unpublished byte intervals [lo, hi) per writer.  Interval-granular
    # so that pipelined protocols (write slice s+1 while the NIC reads
    # slice s of the same buffer) are not flagged as hazards.
    dirty: Dict[Agent, List[Tuple[int, int]]] = field(default_factory=dict)
    # Bumped whenever the written, published or dirty state changes: on
    # every write, and on a release by an agent that wrote this buffer.
    version: int = 0
    # Clean-read memo: (reader, scope, order, lo, hi) -> the version at
    # which that read was last found clean.
    clean: Dict[Tuple[Agent, Scope, MemoryOrder, int, int], int] = field(
        default_factory=dict)
    # One-shot wake-ups for the next version bump (see watch()).
    watchers: List[Callable[[], None]] = field(default_factory=list)


class ScopedMemoryModel:
    """Tracks cross-agent visibility of buffer writes.

    One instance per node.  The model is conservative-correct: it flags a
    hazard whenever a reader could observe stale data under the relaxed
    model; it does not try to model which staleness actually materializes
    (data in the simulator is always the latest value -- the hazard log is
    how tests observe would-be bugs).
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.hazards: List[MemoryHazard] = []
        self._state: Dict[int, _BufferState] = {}

    def _st(self, buf: Buffer) -> _BufferState:
        st = self._state.get(buf.base)
        if st is None:
            st = self._state[buf.base] = _BufferState()
        return st

    # -------------------------------------------------------------- mutation
    def record_write(self, time: int, agent: Agent, buf: Buffer,
                     scope: Scope = Scope.DEVICE,
                     order: MemoryOrder = MemoryOrder.RELAXED,
                     lo: Optional[int] = None, hi: Optional[int] = None) -> None:
        """Record a store to ``buf[lo:hi)`` by ``agent`` (whole buffer by
        default).

        CPU and NIC writes are naturally coherent at system scope in the
        modeled SoC; GPU writes stay device-scoped until released unless
        the store itself is a system-scope release.
        """
        st = self._st(buf)
        st.version += 1
        v = st.writes.get(agent, 0) + 1
        st.writes[agent] = v
        publishes = (
            agent in (Agent.CPU, Agent.NIC)
            or scope >= Scope.SYSTEM
            and order in (MemoryOrder.RELEASE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST)
        )
        if publishes:
            st.published[agent] = v
            st.dirty.pop(agent, None)
            self._invalidate_readers(st, agent)
        else:
            span = (lo if lo is not None else 0,
                    hi if hi is not None else buf.nbytes)
            if span[0] >= span[1]:
                raise ValueError(f"empty write interval {span}")
            st.dirty.setdefault(agent, []).append(span)
        if st.watchers:
            self._wake(st)

    def release(self, time: int, agent: Agent, scope: Scope = Scope.SYSTEM,
                buffers: Optional[List[Buffer]] = None) -> None:
        """A release fence by ``agent``: publish its writes (all buffers or
        the given subset) at ``scope``."""
        if scope < Scope.SYSTEM:
            return  # sub-system release publishes nothing to other agents
        states = ([self._st(b) for b in buffers] if buffers is not None
                  else list(self._state.values()))
        for st in states:
            if agent in st.writes:
                st.version += 1
                st.published[agent] = st.writes[agent]
                st.dirty.pop(agent, None)
                self._invalidate_readers(st, agent)
                if st.watchers:
                    self._wake(st)

    def acquire(self, time: int, agent: Agent, scope: Scope = Scope.SYSTEM,
                buffers: Optional[List[Buffer]] = None) -> None:
        """An acquire fence by ``agent``: observe all published versions."""
        if scope < Scope.SYSTEM:
            return
        states = ([self._st(b) for b in buffers] if buffers is not None
                  else list(self._state.values()))
        for st in states:
            mine = st.acquired.setdefault(agent, {})
            for writer, pub in st.published.items():
                mine[writer] = max(mine.get(writer, 0), pub)

    def watch(self, buf: Buffer, wake: Callable[[], None]) -> None:
        """Call ``wake()`` once, at the next write to ``buf`` or release
        that bumps its version -- the first event after which a re-read
        could differ from a clean read now."""
        self._st(buf).watchers.append(wake)

    @staticmethod
    def _wake(st: _BufferState) -> None:
        watchers, st.watchers = st.watchers, []
        for wake in watchers:
            wake()

    @staticmethod
    def _invalidate_readers(st: _BufferState, writer: Agent) -> None:
        # Publication makes the new version *available*; readers still need
        # an acquire to be guaranteed to see it.  CPU/NIC acquire implicitly
        # (coherent agents); the GPU does not.
        for reader in (Agent.CPU, Agent.NIC):
            st.acquired.setdefault(reader, {})[writer] = st.published[writer]

    # ---------------------------------------------------------------- reads
    def record_read(self, time: int, agent: Agent, buf: Buffer,
                    scope: Scope = Scope.DEVICE,
                    order: MemoryOrder = MemoryOrder.RELAXED,
                    lo: Optional[int] = None,
                    hi: Optional[int] = None) -> Optional[MemoryHazard]:
        """Record a load of ``buf[lo:hi)`` (whole buffer by default);
        returns (and logs) a hazard if it may observe stale data.

        A read found clean is memoized until the buffer's ``version``
        moves, so a spin re-reading an unchanged flag costs one lookup;
        hazardous reads are never memoized and log every time."""
        st = self._st(buf)
        span = (lo if lo is not None else 0,
                hi if hi is not None else buf.nbytes)
        key = (agent, scope, order, span[0], span[1])
        if st.clean.get(key) == st.version:
            return None
        if scope >= Scope.SYSTEM and order in (
            MemoryOrder.ACQUIRE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST
        ):
            mine = st.acquired.setdefault(agent, {})
            for writer, pub in st.published.items():
                mine[writer] = max(mine.get(writer, 0), pub)
        hazard = self._check(time, agent, buf, st, span)
        if hazard is None:
            st.clean[key] = st.version
            return None
        self.hazards.append(hazard)
        if self.strict:
            raise StaleReadError(str(hazard))
        return hazard

    def _check(self, time: int, reader: Agent, buf: Buffer,
               st: _BufferState, span: Tuple[int, int]) -> Optional[MemoryHazard]:
        seen = st.acquired.get(reader, {})
        for writer, latest in st.writes.items():
            if writer is reader:
                continue
            published = st.published.get(writer, 0)
            observed = seen.get(writer, 0)
            overlap = any(d_lo < span[1] and span[0] < d_hi
                          for d_lo, d_hi in st.dirty.get(writer, ()))
            if overlap:
                return MemoryHazard(
                    time, reader, writer, buf.name,
                    f"write v{latest} unpublished in [{span[0]}, {span[1]}) "
                    f"(published v{published})",
                )
            if observed < published and reader is Agent.GPU:
                return MemoryHazard(
                    time, reader, writer, buf.name,
                    f"published v{published} not acquired (observed v{observed})",
                )
        return None

    # -------------------------------------------------------------- queries
    def hazard_count(self) -> int:
        return len(self.hazards)

    def clear(self) -> None:
        self.hazards.clear()
        self._state.clear()
