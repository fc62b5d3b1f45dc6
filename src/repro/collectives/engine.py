"""The collective executor: any schedule-zoo collective on any backend.

It runs *any* :class:`CollectiveSchedule` whose rounds have the canonical
one-SEND one-RECV(+REDUCE) shape -- everything in
:data:`repro.collectives.algorithms.SCHEDULE_BUILDERS`, the ring Allreduce
of Figure 10 included -- over the four backends with the same
trigger-program structure:

* **cpu / hdn** -- two-sided sends; hdn pays one reduce kernel per round;
* **gds**   -- pre-staged deferred puts doorbelled behind the reduce
  kernel that produces their payload (command-queue ordered);
* **gputn** -- one persistent kernel: poll, reduce, ``store_trigger`` the
  next round's pre-armed puts, with the host re-arming trigger entries
  off the critical path.

GPU-TN software pipelining (paper §5.4.1).  Each round's block is split
into ``_SLICES`` work-group slices (the remainder spreads over the
leading slices) and every slice is its own triggered put, so reduction
and wire time overlap.  Trigger points come from the schedule's data
dependencies: send slice ``t`` of round ``k+1`` fires right after the
kernel finishes the last round-``k`` receive slice that overlaps it in
the vector (round ``k`` reduces into the vector or lands in place), and
otherwise after round ``k``'s last slice -- whole-round gating, which is
what all-to-all gets.  On the ring, slice ``s`` of round ``k`` releases
slice ``s`` of round ``k+1``.  Each round's slices leave in index order
(the running maximum of the trigger points over ``t``): the receiver's
per-round flag word counts arrivals, and polling it ``at_least=s+1`` is
only sound if slice ``s`` is the ``(s+1)``-th to arrive.

Staging and flags are **per round**, for every schedule:

* with round-varying peers a remote round-``s`` put can causally precede
  the local rank reaching round ``s - 2``, and even on the ring a left
  neighbour can run up to ``n - 2`` rounds ahead, so two parity buffers
  are not provably enough;
* arrivals from different peers may reorder, so one cumulative counter
  could be satisfied by the wrong round's data.

A reduce round's staging buffer lives only while that round is in
flight: whichever of the sender (a put's target address) and the
receiver (a posted receive) addresses it first allocates it, and reducing
its last slice unmaps it (``AddressSpace.free``) and drops its payload.
No buffer is ever shared between two rounds, and a late put to a retired
round fails loudly at the DMA on an unmapped address.  The live buffers
per rank are bounded by how far ahead a round is addressed -- one round
for cpu/hdn, the next staged put for gds, three rounds of registered
slice puts for GPU-TN -- not by the round count.

The NumPy oracle runs in :meth:`CollectiveExperiment.setup`, before any
executor does: :func:`_expected_results` interprets the schedules over
column blocks of the live vectors (about 1/``_ORACLE_BLOCKS`` of their
size each) with the executors' association order (``chunk = chunk +
arrival``), checks every block against an order-free float64 reference,
and keeps only the distinct expected results -- one array for an
allreduce.  ``finish`` compares bitwise.  :func:`schedule_reference` is
the same interpretation written rank by rank, kept as the plain
statement the blockwise one is tested against.  A point so holds its
vectors once, plus the expected results and the staging in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster, Node
from repro.collectives.algorithms import SCHEDULE_BUILDERS
from repro.collectives.schedule import CollectiveSchedule, OpKind, ScheduleOp
from repro.config import SystemConfig
from repro.gpu.kernel import KernelDescriptor
from repro.memory import Agent, Buffer
from repro.runtime import Experiment
from repro.sim import AllOf

__all__ = [
    "AllreduceExperiment",
    "CollectiveExperiment",
    "CollectiveResult",
    "run_collective",
    "schedule_reference",
]

_F4 = np.dtype(np.float32)

#: Work-group slices per round block in the GPU-TN executor.
_SLICES = 4


def _wire_tag(src_rank: int, rnd: int) -> int:
    """Unique per (sender, round): receivers gate each round on its own
    tag, so cross-round arrivals can never alias."""
    return 0x5000 + src_rank * 512 + rnd


def _trig_tag(rank: int, rnd: int, s: int) -> int:
    return 0x8000 + (rank * 512 + rnd) * _SLICES + s


def _round_ops(ops: List[ScheduleOp]) -> Tuple[ScheduleOp, ScheduleOp, bool]:
    """The canonical round shape: exactly one SEND, one RECV, <=1 REDUCE."""
    sends = [op for op in ops if op.kind is OpKind.SEND]
    recvs = [op for op in ops if op.kind is OpKind.RECV]
    reduces = [op for op in ops if op.kind is OpKind.REDUCE]
    if len(sends) != 1 or len(recvs) != 1 or len(reduces) > 1:
        raise ValueError(f"round shape unsupported by the generic engine: "
                         f"{[op.kind.value for op in ops]}")
    if reduces and (reduces[0].chunk != recvs[0].chunk
                    or reduces[0].nchunks != recvs[0].nchunks):
        raise ValueError("REDUCE must cover exactly the round's RECV block")
    return sends[0], recvs[0], bool(reduces)


# --------------------------------------------------------------------------
# Rank state
# --------------------------------------------------------------------------

class _ZooRank:
    """One rank's buffers for a generic schedule."""

    def __init__(self, node: Node, schedule: CollectiveSchedule, nbytes: int,
                 seed: int):
        if nbytes % (schedule.n_chunks * _F4.itemsize):
            raise ValueError(f"payload {nbytes}B must divide into "
                             f"{schedule.n_chunks} float32 chunks")
        self.node = node
        self.schedule = schedule
        self.rank = schedule.rank
        self.nbytes = nbytes
        self.chunk_bytes = nbytes // schedule.n_chunks
        self.vector = node.host.alloc(nbytes, name=f"{node.name}.zvec")
        rng = np.random.default_rng([seed, self.rank])
        rng.random(dtype=np.float32, out=self.vector.view(_F4))
        self.dest = (self.vector if schedule.in_place else
                     node.host.alloc(nbytes, name=f"{node.name}.zout"))
        self.rounds = [_round_ops(ops) for ops in schedule.rounds]
        # Per-round staging for reduce arrivals, allocated when first
        # addressed and unmapped once the round is reduced (stage/reduce).
        self.staging: List[Optional[Buffer]] = [None] * len(self.rounds)
        self.flags = node.host.alloc(4 * max(1, len(self.rounds)),
                                     name=f"{node.name}.zflags")
        if schedule.collective == "alltoall":
            # The self-chunk never crosses the wire.
            sl = slice(self.rank * self.chunk_bytes // 4,
                       (self.rank + 1) * self.chunk_bytes // 4)
            self.dest.view(_F4)[sl] = self.vector.view(_F4)[sl]

    def result(self) -> np.ndarray:
        """This rank's result: its destination as ``(n_chunks, chunk)``
        rows, or its ``result_chunk`` row alone."""
        rows = self.dest.view(_F4).reshape(self.schedule.n_chunks, -1)
        first = self.schedule.result_chunk
        return rows[first] if first >= 0 else rows

    def op_bytes(self, op: ScheduleOp) -> int:
        return op.nchunks * self.chunk_bytes

    def block_view(self, buf, op: ScheduleOp) -> np.ndarray:
        return buf.view(_F4, count=self.op_bytes(op) // 4,
                        offset=op.chunk * self.chunk_bytes)

    def stage(self, rnd: int) -> Buffer:
        """Reduce round ``rnd``'s staging buffer, allocated by whichever of
        the sender and the receiver addresses it first.  Once the round is
        reduced this is the retired, unmapped buffer: a late put to its
        address fails at the DMA."""
        buf = self.staging[rnd]
        if buf is None:
            _, recv, _ = self.rounds[rnd]
            buf = self.staging[rnd] = self.node.host.alloc(
                self.op_bytes(recv), name=f"{self.node.name}.zstage{rnd}")
        return buf

    def landing_addr(self, rnd: int) -> int:
        """Where this rank's round-``rnd`` arrival lands (put target)."""
        _, recv, is_reduce = self.rounds[rnd]
        if is_reduce:
            return self.stage(rnd).addr()
        return self.dest.addr(recv.chunk * self.chunk_bytes)

    def reduce(self, rnd: int, agent: Agent, time: int, lo: int = 0,
               hi: Optional[int] = None) -> None:
        """Combine elements ``[lo, hi)`` (default: all) of round ``rnd``'s
        staged block into the vector; reducing the block's last element
        retires the round's staging."""
        _, recv, _ = self.rounds[rnd]
        n_elems = self.op_bytes(recv) // 4
        if hi is None:
            hi = n_elems
        stage = self.staging[rnd]
        self.node.mem.record_read(time, agent, stage, lo=4 * lo, hi=4 * hi)
        self.block_view(self.vector, recv)[lo:hi] += stage.view(_F4)[lo:hi]
        base = recv.chunk * self.chunk_bytes
        self.node.mem.record_write(time, agent, self.vector,
                                   lo=base + 4 * lo, hi=base + 4 * hi)
        if hi == n_elems:
            self.node.space.free(stage)
            stage.release()

    def slices(self, op: ScheduleOp) -> List[Tuple[int, int]]:
        """Element ranges of ``op``'s block, one per work-group slice; the
        remainder spreads over the leading slices."""
        n_elems = self.op_bytes(op) // _F4.itemsize
        n_slices = max(1, min(_SLICES, n_elems))
        base, rem = divmod(n_elems, n_slices)
        bounds, lo = [], 0
        for s in range(n_slices):
            hi = lo + base + (1 if s < rem else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def fire_plan(self, rnd: int) -> List[List[int]]:
        """Round ``rnd + 1``'s send slices, grouped by the round-``rnd``
        receive slice after which the kernel triggers them (see the module
        docstring): the last overlapping receive slice, else the round's
        last, made monotone so the slices leave in index order."""
        _, recv, is_reduce = self.rounds[rnd]
        send, _, _ = self.rounds[rnd + 1]
        recv_slices = self.slices(recv)
        last = len(recv_slices) - 1
        lands_in_vector = is_reduce or self.schedule.in_place
        r0 = recv.chunk * self.chunk_bytes // 4
        s0 = send.chunk * self.chunk_bytes // 4
        plan: List[List[int]] = [[] for _ in recv_slices]
        at = 0
        for t, (lo, hi) in enumerate(self.slices(send)):
            dep = last
            if lands_in_vector:
                dep = max((s for s, (a, b) in enumerate(recv_slices)
                           if r0 + a < s0 + hi and s0 + lo < r0 + b),
                          default=last)
            at = max(at, dep)
            plan[at].append(t)
        return plan

    def reduce_bytes(self, rnd: int) -> int:
        _, recv, _ = self.rounds[rnd]
        return 3 * self.op_bytes(recv)  # load block + load staging + store


def _check_pairing(states: List["_ZooRank"]) -> None:
    """Global schedule consistency: every SEND has a matching same-round
    RECV of the same size at its peer -- the invariant that lets senders
    write straight into the receiver's landing buffer."""
    n_rounds = {len(s.rounds) for s in states}
    if len(n_rounds) != 1:
        raise ValueError(f"ranks disagree on round count: {sorted(n_rounds)}")
    for st in states:
        for rnd, (send, _, _) in enumerate(st.rounds):
            _, peer_recv, _ = states[send.peer].rounds[rnd]
            if peer_recv.peer != st.rank:
                raise ValueError(
                    f"round {rnd}: rank {st.rank} sends to {send.peer}, "
                    f"which expects rank {peer_recv.peer}")
            if peer_recv.nchunks != send.nchunks:
                raise ValueError(f"round {rnd}: send/recv size mismatch "
                                 f"{send.nchunks} != {peer_recv.nchunks}")


# --------------------------------------------------------------------------
# Executors
# --------------------------------------------------------------------------

def _cpu_zoo(state: _ZooRank, states: List[_ZooRank]):
    node, host = state.node, state.node.host
    for rnd, (send, recv, is_reduce) in enumerate(state.rounds):
        if is_reduce:
            handle = host.post_recv(_wire_tag(recv.peer, rnd),
                                    state.stage(rnd), state.op_bytes(recv))
        else:
            handle = host.post_recv(_wire_tag(recv.peer, rnd), state.dest,
                                    state.op_bytes(recv),
                                    offset=recv.chunk * state.chunk_bytes)
        yield from host.send(state.vector, state.op_bytes(send),
                             states[send.peer].node.name,
                             _wire_tag(state.rank, rnd),
                             offset=send.chunk * state.chunk_bytes)
        yield from host.wait_recv(handle)
        if is_reduce:
            state.reduce(rnd, Agent.CPU, node.sim.now)
            yield node.sim.timeout(node.config.cpu.omp_region_ns)
            yield from host.compute_bytes(state.reduce_bytes(rnd),
                                          phase="reduce")
    return node.sim.now


def _zoo_reduce_kernel(state: _ZooRank, rnd: int, name: str):
    def kernel(ctx):
        yield ctx.fence_acquire_system(state.staging[rnd])
        if ctx.wg_id == 0:
            state.reduce(rnd, Agent.GPU, ctx.sim.now)
        yield ctx.compute_bytes(state.reduce_bytes(rnd) // ctx.n_workgroups)
        yield ctx.barrier()
        yield ctx.fence_release_system(state.vector)
    kernel.__name__ = name
    return kernel


def _hdn_zoo(state: _ZooRank, states: List[_ZooRank]):
    node, host = state.node, state.node.host
    n_wg = node.config.gpu.compute_units
    for rnd, (send, recv, is_reduce) in enumerate(state.rounds):
        if is_reduce:
            handle = host.post_recv(_wire_tag(recv.peer, rnd),
                                    state.stage(rnd), state.op_bytes(recv))
        else:
            handle = host.post_recv(_wire_tag(recv.peer, rnd), state.dest,
                                    state.op_bytes(recv),
                                    offset=recv.chunk * state.chunk_bytes)
        yield from host.send(state.vector, state.op_bytes(send),
                             states[send.peer].node.name,
                             _wire_tag(state.rank, rnd),
                             offset=send.chunk * state.chunk_bytes)
        yield from host.wait_recv(handle)
        if is_reduce:
            desc = KernelDescriptor(
                fn=_zoo_reduce_kernel(state, rnd, f"zoo-hdn-{rnd}"),
                n_workgroups=n_wg, name=f"zoo-hdn-{rnd}", uniform=True)
            inst = yield from host.launch_kernel(desc)
            # Later rounds may forward what this kernel just reduced.
            yield from host.wait_kernel(inst, mode="blocking")
    return node.sim.now


def _expose_round_flags(state: _ZooRank) -> None:
    for rnd, (_, recv, _) in enumerate(state.rounds):
        state.node.nic.expose_rx_flag(_wire_tag(recv.peer, rnd),
                                      (state.flags, 4 * rnd))


def _gds_zoo(state: _ZooRank, states: List[_ZooRank]):
    node, host = state.node, state.node.host
    n_wg = node.config.gpu.compute_units
    _expose_round_flags(state)
    n_rounds = len(state.rounds)

    def stage_send(rnd: int):
        send, _, _ = state.rounds[rnd]
        peer = states[send.peer]
        h = yield from host.put(state.vector, state.op_bytes(send),
                                peer.node.name, peer.landing_addr(rnd),
                                wire_tag=_wire_tag(state.rank, rnd),
                                offset=send.chunk * state.chunk_bytes,
                                deferred=True)
        return h

    staged = yield from stage_send(0)
    prev_kernel = None
    queued_bell = None  # newest doorbell routed through the GPU queue
    for rnd, (send, recv, is_reduce) in enumerate(state.rounds):
        # Same discipline as the ring gds executor: a direct doorbell must
        # never overtake one still queued behind a kernel, or sends leave
        # in the wrong round order.
        if prev_kernel is None and (queued_bell is None
                                    or queued_bell.rung.triggered):
            node.nic.ring_doorbell(staged)
        else:
            queued_bell = node.gpu.enqueue_doorbell(staged)
        if rnd + 1 < n_rounds:
            next_staged = yield from stage_send(rnd + 1)  # overlaps kernel
        yield from host.poll_flag(state.flags, offset=4 * rnd, at_least=1)
        if is_reduce:
            desc = KernelDescriptor(
                fn=_zoo_reduce_kernel(state, rnd, f"zoo-gds-{rnd}"),
                n_workgroups=n_wg, name=f"zoo-gds-{rnd}", uniform=True)
            prev_kernel = yield from host.launch_kernel(desc)
        else:
            prev_kernel = None
        if rnd + 1 < n_rounds:
            staged = next_staged
    if prev_kernel is not None:
        yield prev_kernel.finished
    return node.sim.now


def _gputn_zoo(state: _ZooRank, states: List[_ZooRank]):
    """The whole collective in one persistent kernel (paper §5.4.1): per
    slice, poll the round flag, reduce, and fire the next round's
    pre-armed slice puts this slice completes (module docstring)."""
    node, host = state.node, state.node.host
    _expose_round_flags(state)
    n_rounds = len(state.rounds)
    plans = [state.fire_plan(rnd) for rnd in range(n_rounds - 1)]

    def kernel(ctx):
        rate = ctx.config.gpu.stream_bytes_per_ns
        # Round 0's block is ready at kernel start: trigger all its slices.
        yield ctx.fence_release_system(state.vector)
        for t in range(len(state.slices(state.rounds[0][0]))):
            yield ctx.store_trigger(_trig_tag(state.rank, 0, t))
        for rnd, (_, recv, is_reduce) in enumerate(state.rounds):
            for s, (lo, hi) in enumerate(state.slices(recv)):
                yield from ctx.poll_flag(state.flags, offset=4 * rnd,
                                         at_least=s + 1)
                if is_reduce:
                    yield ctx.fence_acquire_system(state.staging[rnd])
                    state.reduce(rnd, Agent.GPU, ctx.sim.now, lo, hi)
                    yield ctx.compute(int(3 * 4 * (hi - lo) / rate) + 1)
                else:
                    yield ctx.fence_acquire_system(state.dest)
                fire = plans[rnd][s] if rnd + 1 < n_rounds else ()
                if fire:
                    yield ctx.fence_release_system(state.vector)
                for t in fire:
                    yield ctx.store_trigger(_trig_tag(state.rank, rnd + 1, t))

    def batches():
        """One slice put per batch; a round's landing address is taken
        (and its staging allocated) just before its first slice."""
        for rnd, (send, _, _) in enumerate(state.rounds):
            peer = states[send.peer]
            base = peer.landing_addr(rnd)
            for t, (lo, hi) in enumerate(state.slices(send)):
                yield [dict(tag=_trig_tag(state.rank, rnd, t), threshold=1,
                            buf=state.vector, nbytes=4 * (hi - lo),
                            target=peer.node.name, remote_addr=base + 4 * lo,
                            wire_tag=_wire_tag(state.rank, rnd),
                            offset=send.chunk * state.chunk_bytes + 4 * lo)]

    # Respect the prototype's 16-entry trigger-list bound.
    rearm_proc = node.sim.spawn(host.rearm_triggered_puts(batches(), 12),
                                name=f"{node.name}.zoo-rearm")
    desc = KernelDescriptor(fn=kernel, n_workgroups=1,
                            args={"persistent": True},
                            name="zoo-gputn-persistent")
    inst = yield from host.launch_kernel(desc)
    yield AllOf(node.sim, [inst.finished, rearm_proc])
    return node.sim.now


_ZOO_EXECUTORS = {
    "cpu": _cpu_zoo,
    "hdn": _hdn_zoo,
    "gds": _gds_zoo,
    "gputn": _gputn_zoo,
}


# --------------------------------------------------------------------------
# NumPy oracle
# --------------------------------------------------------------------------

def schedule_reference(schedules: List[CollectiveSchedule],
                       vectors: List[np.ndarray]) -> List[np.ndarray]:
    """Interpret the schedules round-by-round globally in NumPy.

    Reproduces the executors' exact association order
    (``block = block + arrival``) so comparisons are bitwise.  Returns
    each rank's destination buffer (the vector itself for in-place
    schedules, the separate output for all-to-all).  This is the plain,
    rank-by-rank statement of the interpretation; experiments use its
    blockwise form, :func:`_expected_results`.
    """
    vecs = [v.astype(_F4, copy=True) for v in vectors]
    n = len(schedules)
    ch = vecs[0].size // schedules[0].n_chunks
    in_place = schedules[0].in_place
    outs = vecs if in_place else [v.copy() for v in vecs]
    rounds = [[_round_ops(ops) for ops in s.rounds] for s in schedules]
    for rnd in range(len(rounds[0])):
        # A round's send reads pre-round state (executors post the send
        # before waiting on the round's arrival).  Only a send block the
        # same round lands on needs a snapshot; canonical schedules have
        # none, so the rest are views.
        inflight = []
        for r in range(n):
            send, recv, _ = rounds[r][rnd]
            data = vecs[r][send.chunk * ch:(send.chunk + send.nchunks) * ch]
            if in_place and (send.chunk < recv.chunk + recv.nchunks
                             and recv.chunk < send.chunk + send.nchunks):
                data = data.copy()
            inflight.append((send.peer, data))
        for r in range(n):
            peer, data = inflight[r]
            _, recv, is_reduce = rounds[peer][rnd]
            sl = slice(recv.chunk * ch, (recv.chunk + recv.nchunks) * ch)
            if is_reduce:
                vecs[peer][sl] += data
            else:
                outs[peer][sl] = data
    return outs


#: The oracle interprets the schedules over this many column blocks of the
#: vectors, so its working set is about this fraction of their total size.
_ORACLE_BLOCKS = 8


def _round_moves(schedules: List[CollectiveSchedule]
                 ) -> List[Tuple[np.ndarray, ...]]:
    """Each round as row moves over the ``(rank, chunk)`` rows of all
    ranks' vectors stacked (row ``rank * n_chunks + chunk``): the source
    and destination rows of the blocks that reduce on arrival, then of the
    blocks that land as they are."""
    n_chunks = schedules[0].n_chunks
    rounds = [[_round_ops(ops) for ops in s.rounds] for s in schedules]
    moves = []
    for rnd in range(len(rounds[0])):
        rows: Tuple[List[int], ...] = ([], [], [], [])
        for r, ranks_rounds in enumerate(rounds):
            send, _, _ = ranks_rounds[rnd]
            _, recv, is_reduce = rounds[send.peer][rnd]
            src = r * n_chunks + send.chunk
            dst = send.peer * n_chunks + recv.chunk
            k = 0 if is_reduce else 2
            rows[k].extend(range(src, src + send.nchunks))
            rows[k + 1].extend(range(dst, dst + recv.nchunks))
        moves.append(tuple(np.array(r, dtype=np.intp) for r in rows))
    return moves


def _semantic_reference(schedules: List[CollectiveSchedule],
                        block: np.ndarray) -> List[np.ndarray]:
    """Order-free float64 reference for the collective's *meaning* over
    one column block (``block[rank, chunk]``, the initial data), shaped
    like each rank's result rows -- a tolerance cross-check that the
    schedule interpreter and the schedules aren't wrong in the same way.
    Ranks with the same result share one array."""
    n = len(schedules)
    kind = schedules[0].collective
    if kind in ("allreduce", "reduce_scatter"):
        total = block.sum(axis=0, dtype=np.float64)
        if kind == "allreduce":
            return [total] * n
        return [total[s.result_chunk] for s in schedules]
    if kind == "allgather":
        return [block[np.arange(n), np.arange(n)].astype(np.float64)] * n
    if kind == "alltoall":
        return [block[:, r].astype(np.float64) for r in range(n)]
    raise ValueError(f"unknown collective kind {kind!r}")


def _expected_results(schedules: List[CollectiveSchedule],
                      vectors: List[np.ndarray]
                      ) -> Tuple[List[np.ndarray], bool]:
    """Every rank's expected result, interpreted before the run.

    An op moves whole chunks, so element ``j`` of a chunk only ever meets
    element ``j`` of other chunks: the schedules run exactly over column
    blocks of the stacked vectors, one block at a time, each round as one
    gather of every send block (the pre-round state, as the executors
    read it) and one scatter(-add) into the receivers' blocks.  The result
    is bitwise :func:`schedule_reference`; ``vectors`` are not modified.

    Returns one array per rank, shaped like :meth:`_ZooRank.result`, with
    ranks of equal results sharing one array (one in all for an
    allreduce), and whether every block matched
    :func:`_semantic_reference`.
    """
    n = len(schedules)
    n_chunks = schedules[0].n_chunks
    ch = vectors[0].size // n_chunks
    width = -(-ch // _ORACLE_BLOCKS)
    in_place = schedules[0].in_place
    moves = _round_moves(schedules)
    # Ranks whose semantic result is shared may share an expected array:
    # ``owner[r]`` is the rank whose array stands for r's, split off
    # the first time a block tells them apart.
    shared = schedules[0].collective in ("allreduce", "allgather")
    owner = [0] * n if shared else list(range(n))
    first = [s.result_chunk for s in schedules]
    expected: Dict[int, np.ndarray] = {
        r: np.empty(ch if first[r] >= 0 else (n_chunks, ch), _F4)
        for r in sorted(set(owner))}

    def rows(out: np.ndarray, r: int) -> np.ndarray:
        base = r * n_chunks
        return out[base + first[r]] if first[r] >= 0 else out[base:base + n_chunks]

    semantic_ok = True
    block = np.empty((n, n_chunks, width), _F4)
    for lo in range(0, ch, width):
        hi = min(lo + width, ch)
        blk = block[:, :, :hi - lo]
        for r, vec in enumerate(vectors):
            blk[r] = vec.reshape(n_chunks, ch)[:, lo:hi]
        semantic = _semantic_reference(schedules, blk)
        vecs = blk.reshape(n * n_chunks, hi - lo)
        outs = vecs if in_place else vecs.copy()
        for red_src, red_dst, put_src, put_dst in moves:
            # Both gathers copy, so each round reads its pre-round state.
            landed = vecs[put_src] if put_src.size else None
            if red_src.size:
                vecs[red_dst] += vecs[red_src]
            if landed is not None:
                outs[put_dst] = landed
        for r in range(n):
            got, o = rows(outs, r), owner[r]
            if o != r and not np.array_equal(got, rows(outs, o)):
                # r has matched o so far: its columns before lo are o's.
                expected[r] = expected[o].copy()
                owner[r] = o = r
            if o == r:
                expected[r][..., lo:hi] = got
                semantic_ok = semantic_ok and bool(
                    np.allclose(got, semantic[r], rtol=1e-4))
    return [expected[owner[r]] for r in range(n)], semantic_ok


# --------------------------------------------------------------------------
# Experiments + entry point
# --------------------------------------------------------------------------

@dataclass
class CollectiveResult:
    schedule: str
    strategy: str
    topology: str
    n_nodes: int
    nbytes: int
    total_ns: int
    correct: bool
    n_rounds: int = 0
    memory_hazards: int = 0
    cpu_busy_ns: int = 0
    per_rank_ns: List[int] = field(default_factory=list)


class CollectiveExperiment(Experiment):
    """One schedule-zoo collective on one topology/backend.

    Parameters: ``schedule`` (a :data:`SCHEDULE_BUILDERS` name),
    ``strategy`` (cpu/hdn/gds/gputn), ``topology`` (a
    ``NetworkConfig.topology`` spec string), ``n_nodes``, ``nbytes``
    (padded to whole float32 chunks) and the data ``seed``.
    """

    name = "collective-zoo"
    defaults = {"schedule": "halving-doubling", "strategy": "gputn",
                "topology": "star", "n_nodes": 4, "nbytes": 64 * 1024,
                "seed": 11}

    @staticmethod
    def padded_nbytes(n_chunks: int, nbytes: int) -> int:
        quantum = n_chunks * _F4.itemsize
        return (nbytes + quantum - 1) // quantum * quantum

    def shape(self, params: Dict[str, Any]) -> Tuple[str, Optional[str]]:
        """A point's ``(schedule, topology)``; a ``None`` topology keeps
        the config's own fabric."""
        return params["schedule"], params["topology"]

    def configure(self, params: Dict[str, Any],
                  config: SystemConfig) -> SystemConfig:
        from dataclasses import replace

        _, spec = self.shape(params)
        if spec is None or spec == config.network.topology:
            return config
        return config.with_(network=replace(config.network, topology=spec))

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        strategy = params["strategy"]
        if strategy not in _ZOO_EXECUTORS:
            raise KeyError(f"unknown strategy {strategy!r}; "
                           f"choose from {sorted(_ZOO_EXECUTORS)}")
        schedule, _ = self.shape(params)
        if schedule not in SCHEDULE_BUILDERS:
            raise KeyError(f"unknown schedule {schedule!r}; "
                           f"choose from {sorted(SCHEDULE_BUILDERS)}")
        return Cluster(n_nodes=params["n_nodes"], config=config,
                       with_gpu=(strategy != "cpu"), trace=trace)

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        n_nodes = params["n_nodes"]
        schedule, _ = self.shape(params)
        schedules = [SCHEDULE_BUILDERS[schedule](r, n_nodes)
                     for r in range(n_nodes)]
        nbytes = self.padded_nbytes(schedules[0].n_chunks, params["nbytes"])
        states = [_ZooRank(cluster[r], schedules[r], nbytes, params["seed"])
                  for r in range(n_nodes)]
        _check_pairing(states)
        expected, semantic_ok = _expected_results(
            schedules, [s.vector.view(_F4) for s in states])
        executor = _ZOO_EXECUTORS[params["strategy"]]
        procs = [cluster.spawn(executor(states[r], states),
                               name=f"zoo.{schedule}.{params['strategy']}.{r}")
                 for r in range(n_nodes)]
        return {"procs": procs, "states": states, "schedules": schedules,
                "expected": expected, "semantic_ok": semantic_ok,
                "nbytes": nbytes}

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]):
        procs, states = ctx["procs"], ctx["states"]
        schedules = ctx["schedules"]
        correct = ctx["semantic_ok"] and all(
            np.array_equal(st.result(), exp)
            for st, exp in zip(states, ctx["expected"]))
        schedule, topology = self.shape(params)
        result = CollectiveResult(
            schedule=schedule, strategy=params["strategy"],
            topology=topology or cluster.config.network.topology,
            n_nodes=params["n_nodes"],
            nbytes=ctx["nbytes"], total_ns=max(p.value for p in procs),
            correct=correct, n_rounds=schedules[0].n_rounds,
            memory_hazards=cluster.total_hazards(),
            cpu_busy_ns=cluster.total_cpu_busy_ns(),
            per_rank_ns=[p.value for p in procs],
        )
        metrics = {
            "total_ns": result.total_ns,
            "correct": correct,
            "cpu_busy_ns": result.cpu_busy_ns,
            "per_rank_ns": list(result.per_rank_ns),
            "padded_nbytes": result.nbytes,
        }
        return metrics, result


class AllreduceExperiment(CollectiveExperiment):
    """One ring Allreduce (Figure 10's unit) on the config's own fabric.

    A preset of :class:`CollectiveExperiment` with the schedule fixed to
    ``"ring"``.  Parameters: ``strategy``, ``n_nodes``, ``nbytes`` (padded
    up to whole float32 chunks, as an MPI implementation would do
    internally for ragged divisions) and the data ``seed``.
    """

    name = "ring-allreduce"
    defaults = {"strategy": "gputn", "n_nodes": 4,
                "nbytes": 8 * 1024 * 1024, "seed": 11}

    def shape(self, params: Dict[str, Any]) -> Tuple[str, Optional[str]]:
        return "ring", None


def run_collective(schedule: str = "halving-doubling",
                   strategy: str = "gputn", topology: str = "star",
                   n_nodes: int = 4, nbytes: int = 64 * 1024, seed: int = 11,
                   config: Optional[SystemConfig] = None) -> CollectiveResult:
    """Run one zoo collective and verify it against the NumPy oracle."""
    return CollectiveExperiment().execute(
        {"schedule": schedule, "strategy": strategy, "topology": topology,
         "n_nodes": n_nodes, "nbytes": nbytes, "seed": seed},
        config=config,
    ).raw
