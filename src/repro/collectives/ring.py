"""Per-strategy executors for the ring Allreduce schedule (Figure 10).

All four executors run the *same* :func:`ring_allreduce_schedule` and
produce numerically identical results (asserted against a NumPy
ring-order reference); they differ only in who drives each subtask:

* **cpu**   -- two-sided sends + OpenMP-style reduction on the host;
* **hdn**   -- two-sided sends on the host, one reduce *kernel per
  round* (the kernel-boundary cost the paper hammers on);
* **gds**   -- pre-staged puts doorbelled behind each round's reduce
  kernel; the host polls arrivals between launches;
* **gputn** -- the whole collective inside one persistent kernel: poll,
  reduce, trigger -- with the CPU re-arming trigger entries off the
  critical path (paper Section 5.4.1).

Only reduce-scatter arrivals need staging (they are combined, not
replaced); allgather puts land directly in the destination chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster, Node
from repro.collectives.schedule import OpKind, ring_allreduce_schedule
from repro.config import SystemConfig, default_config
from repro.gpu.kernel import KernelDescriptor
from repro.memory import Agent, Buffer
from repro.runtime import Experiment
from repro.sim import AllOf

__all__ = [
    "AllreduceExperiment",
    "AllreduceResult",
    "allreduce_reference",
    "run_ring_allreduce",
]

_F4 = np.dtype(np.float32)


# --------------------------------------------------------------------------
# Rank state
# --------------------------------------------------------------------------

class _RingRank:
    """One rank's buffers and numeric helpers."""

    def __init__(self, node: Node, rank: int, n_ranks: int, nbytes: int, seed: int):
        if nbytes % (n_ranks * _F4.itemsize):
            raise ValueError(
                f"payload {nbytes}B must divide into {n_ranks} float32 chunks")
        self.node = node
        self.rank = rank
        self.n_ranks = n_ranks
        self.nbytes = nbytes
        self.chunk_bytes = nbytes // n_ranks
        self.schedule = ring_allreduce_schedule(rank, n_ranks)
        self.vector = node.host.alloc(nbytes, name=f"{node.name}.vec")
        rng = np.random.default_rng([seed, rank])
        self.vector.view(_F4)[:] = rng.random(nbytes // 4, dtype=np.float32)
        # Parity staging for reduce-scatter arrivals + one arrival counter.
        self.staging = [node.host.alloc(self.chunk_bytes, name=f"{node.name}.stage{p}")
                        for p in (0, 1)]
        self.flag = node.host.alloc(4, name=f"{node.name}.arrivals")

    def chunk_view(self, c: int) -> np.ndarray:
        return self.vector.view(_F4, count=self.chunk_bytes // 4,
                                offset=c * self.chunk_bytes)

    def chunk_addr(self, c: int) -> int:
        return self.vector.addr(c * self.chunk_bytes)

    def reduce_from_staging(self, c: int, parity: int, agent: Agent, time: int) -> None:
        self.node.mem.record_read(time, agent, self.staging[parity])
        self.chunk_view(c)[:] += self.staging[parity].view(_F4)
        self.node.mem.record_write(time, agent, self.vector,
                                   lo=c * self.chunk_bytes,
                                   hi=(c + 1) * self.chunk_bytes)

    def reduce_slice(self, c: int, parity: int, lo: int, hi: int,
                     agent: Agent, time: int) -> None:
        """Combine elements [lo, hi) of the staged chunk (GPU-TN pipelining)."""
        self.node.mem.record_read(time, agent, self.staging[parity])
        self.chunk_view(c)[lo:hi] += self.staging[parity].view(_F4)[lo:hi]
        base = c * self.chunk_bytes
        self.node.mem.record_write(time, agent, self.vector,
                                   lo=base + 4 * lo, hi=base + 4 * hi)

    def slice_bounds(self, n_slices: int) -> List[Tuple[int, int]]:
        """Element ranges for work-group-granularity chunk slicing; the
        remainder spreads over the leading slices, so ragged chunks still
        pipeline."""
        n_elems = self.chunk_bytes // _F4.itemsize
        n_slices = max(1, min(n_slices, n_elems))
        base, rem = divmod(n_elems, n_slices)
        bounds, lo = [], 0
        for s in range(n_slices):
            hi = lo + base + (1 if s < rem else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def reduce_bytes(self) -> int:
        # load chunk + load staging + store chunk
        return 3 * self.chunk_bytes


def _wire_tag(src_rank: int) -> int:
    return 0x600 + src_rank


def _trig_tag(rank: int, rnd: int) -> int:
    return 0x4000 + rank * 256 + rnd


# --------------------------------------------------------------------------
# Executors
# --------------------------------------------------------------------------

def _cpu_rank(state: _RingRank, peers: Dict[int, Node], iters_unused=None):
    node, host = state.node, state.node.host
    right = (state.rank + 1) % state.n_ranks
    left = (state.rank - 1) % state.n_ranks
    for rnd, ops in enumerate(state.schedule.rounds):
        parity = rnd & 1
        send = next(op for op in ops if op.kind is OpKind.SEND)
        recv = next(op for op in ops if op.kind is OpKind.RECV)
        is_reduce = any(op.kind is OpKind.REDUCE for op in ops)
        if is_reduce:
            handle = host.post_recv(_wire_tag(left), state.staging[parity],
                                    state.chunk_bytes)
        else:
            handle = host.post_recv(_wire_tag(left), state.vector,
                                    state.chunk_bytes,
                                    offset=recv.chunk * state.chunk_bytes)
        yield from host.send(state.vector, state.chunk_bytes, peers[right].name,
                             _wire_tag(state.rank),
                             offset=send.chunk * state.chunk_bytes)
        yield from host.wait_recv(handle)
        if is_reduce:
            state.reduce_from_staging(recv.chunk, parity, Agent.CPU, node.sim.now)
            yield node.sim.timeout(node.config.cpu.omp_region_ns)
            yield from host.compute_bytes(state.reduce_bytes(), phase="reduce")
    return node.sim.now


def _reduce_kernel_factory(state: _RingRank, chunk: int, parity: int, name: str):
    def kernel(ctx):
        yield ctx.fence_acquire_system(state.staging[parity])
        if ctx.wg_id == 0:
            state.reduce_from_staging(chunk, parity, Agent.GPU, ctx.sim.now)
        yield ctx.compute_bytes(state.reduce_bytes() // ctx.n_workgroups)
        yield ctx.barrier()
        yield ctx.fence_release_system(state.vector)
    kernel.__name__ = name
    return kernel


def _hdn_rank(state: _RingRank, peers: Dict[int, Node], iters_unused=None):
    node, host = state.node, state.node.host
    right = (state.rank + 1) % state.n_ranks
    left = (state.rank - 1) % state.n_ranks
    n_wg = node.config.gpu.compute_units
    for rnd, ops in enumerate(state.schedule.rounds):
        parity = rnd & 1
        send = next(op for op in ops if op.kind is OpKind.SEND)
        recv = next(op for op in ops if op.kind is OpKind.RECV)
        is_reduce = any(op.kind is OpKind.REDUCE for op in ops)
        if is_reduce:
            handle = host.post_recv(_wire_tag(left), state.staging[parity],
                                    state.chunk_bytes)
        else:
            handle = host.post_recv(_wire_tag(left), state.vector,
                                    state.chunk_bytes,
                                    offset=recv.chunk * state.chunk_bytes)
        yield from host.send(state.vector, state.chunk_bytes, peers[right].name,
                             _wire_tag(state.rank),
                             offset=send.chunk * state.chunk_bytes)
        yield from host.wait_recv(handle)
        if is_reduce:
            desc = KernelDescriptor(
                fn=_reduce_kernel_factory(state, recv.chunk, parity,
                                          f"ar-hdn-{rnd}"),
                n_workgroups=n_wg, name=f"ar-hdn-{rnd}")
            inst = yield from host.launch_kernel(desc)
            # Next round sends the chunk this kernel just reduced, so the
            # application stream-synchronizes before the MPI send.
            yield from host.wait_kernel(inst, mode="blocking")
    return node.sim.now


def _gds_rank(state: _RingRank, peers: Dict[int, Node], iters_unused=None):
    node, host = state.node, state.node.host
    right = (state.rank + 1) % state.n_ranks
    left = (state.rank - 1) % state.n_ranks
    n_wg = node.config.gpu.compute_units
    peer_state: _RingRank = peers[right].host._ring_state  # type: ignore[attr-defined]
    node.nic.expose_rx_flag(_wire_tag(left), (state.flag, 0))

    def stage_send(rnd: int):
        send = next(op for op in state.schedule.rounds[rnd]
                    if op.kind is OpKind.SEND)
        is_reduce_rnd = rnd < state.n_ranks - 1
        if is_reduce_rnd:
            remote = peer_state.staging[rnd & 1].addr()
        else:
            # Allgather: land directly in the peer's destination chunk.
            remote = peer_state.chunk_addr(send.chunk)
        h = yield from host.put(state.vector, state.chunk_bytes, peers[right].name,
                                remote, wire_tag=_wire_tag(state.rank),
                                offset=send.chunk * state.chunk_bytes,
                                deferred=True)
        return h

    n_rounds = len(state.schedule.rounds)
    staged = yield from stage_send(0)
    prev_kernel = None
    queued_bell = None  # newest doorbell routed through the GPU queue
    for rnd in range(n_rounds):
        parity = rnd & 1
        is_reduce = rnd < state.n_ranks - 1
        # Ring this round's send behind the kernel that produced its chunk.
        # A direct ring must never overtake a doorbell still sitting in the
        # command queue (possible when bursty arrivals -- e.g. retransmit
        # recovery -- let the host race ahead of a backed-up GPU): sends
        # would leave in the wrong round order and the receiver's arrival
        # counter would gate on the wrong round's data.
        if prev_kernel is None and (queued_bell is None
                                    or queued_bell.rung.triggered):
            node.nic.ring_doorbell(staged)
        else:
            queued_bell = node.gpu.enqueue_doorbell(staged)
        if rnd + 1 < n_rounds:
            next_staged = yield from stage_send(rnd + 1)  # overlaps kernel
        # No kernel synchronize: doorbells are ordered by the command
        # queue; the host only gates on this round's arrival.
        yield from host.poll_flag(state.flag, at_least=rnd + 1)
        if is_reduce:
            recv = next(op for op in state.schedule.rounds[rnd]
                        if op.kind is OpKind.RECV)
            desc = KernelDescriptor(
                fn=_reduce_kernel_factory(state, recv.chunk, parity,
                                          f"ar-gds-{rnd}"),
                n_workgroups=n_wg, name=f"ar-gds-{rnd}")
            prev_kernel = yield from host.launch_kernel(desc)
        else:
            prev_kernel = None
        if rnd + 1 < n_rounds:
            staged = next_staged
    if prev_kernel is not None:
        yield prev_kernel.finished
    return node.sim.now


def _gputn_rank(state: _RingRank, peers: Dict[int, Node], iters_unused=None):
    """The entire collective inside one persistent kernel (paper §5.4.1).

    Each chunk is split into work-group-granularity *slices*; a slice's
    put is triggered as soon as that slice is reduced, so wire time and
    reduction pipeline against each other ("this allows for easy software
    pipelining of the computation and network transfer").
    """
    node, host = state.node, state.node.host
    right = (state.rank + 1) % state.n_ranks
    left = (state.rank - 1) % state.n_ranks
    peer_state: _RingRank = peers[right].host._ring_state  # type: ignore[attr-defined]
    node.nic.expose_rx_flag(_wire_tag(left), (state.flag, 0))
    n_rounds = len(state.schedule.rounds)
    # Work-group-granularity slicing of each chunk (ragged chunks still
    # split: the remainder spreads over the leading slices).
    bounds = state.slice_bounds(4)
    n_slices = len(bounds)

    def trig_tag(rnd: int, s: int) -> int:
        return 0x4000 + state.rank * 1024 + rnd * n_slices + s

    def kernel(ctx):
        rate = ctx.config.gpu.stream_bytes_per_ns
        # Round 0's chunk is ready at kernel start: trigger all slices.
        yield ctx.fence_release_system(state.vector)
        for s in range(n_slices):
            yield ctx.store_trigger(trig_tag(0, s))
        for rnd in range(n_rounds):
            is_reduce = rnd < state.n_ranks - 1
            recv = next(op for op in state.schedule.rounds[rnd]
                        if op.kind is OpKind.RECV)
            parity = rnd & 1
            for s, (lo, hi) in enumerate(bounds):
                yield from ctx.poll_flag(state.flag,
                                         at_least=rnd * n_slices + s + 1)
                if is_reduce:
                    yield ctx.fence_acquire_system(state.staging[parity])
                    state.reduce_slice(recv.chunk, parity, lo, hi,
                                       Agent.GPU, ctx.sim.now)
                    yield ctx.compute(int(3 * 4 * (hi - lo) / rate) + 1)
                else:
                    yield ctx.fence_acquire_system(state.vector)
                if rnd + 1 < n_rounds:
                    yield ctx.fence_release_system(state.vector)
                    yield ctx.store_trigger(trig_tag(rnd + 1, s))

    def rearm():
        live: List = []
        for rnd in range(n_rounds):
            send = next(op for op in state.schedule.rounds[rnd]
                        if op.kind is OpKind.SEND)
            is_reduce_rnd = rnd < state.n_ranks - 1
            for s, (lo, hi) in enumerate(bounds):
                off_bytes, n_bytes = 4 * lo, 4 * (hi - lo)
                if is_reduce_rnd:
                    remote = peer_state.staging[rnd & 1].addr(off_bytes)
                else:
                    remote = peer_state.chunk_addr(send.chunk) + off_bytes
                entry = yield from host.register_triggered_put(
                    tag=trig_tag(rnd, s), threshold=1,
                    buf=state.vector, nbytes=n_bytes,
                    target=peers[right].name, remote_addr=remote,
                    wire_tag=_wire_tag(state.rank),
                    offset=send.chunk * state.chunk_bytes + off_bytes)
                live.append(entry)
                # Respect the prototype's 16-entry bound.
                while len(live) > 12:
                    done = live.pop(0)
                    yield node.nic.handle_for(done).local
                    node.nic.trigger_list.free(done)
        for entry in live:
            yield node.nic.handle_for(entry).local
            node.nic.trigger_list.free(entry)

    rearm_proc = node.sim.spawn(rearm(), name=f"{node.name}.ar-rearm")
    desc = KernelDescriptor(fn=kernel, n_workgroups=1,
                            args={"persistent": True},
                            name="ar-gputn-persistent")
    inst = yield from host.launch_kernel(desc)
    yield AllOf(node.sim, [inst.finished, rearm_proc])
    return node.sim.now


_EXECUTORS = {
    "cpu": _cpu_rank,
    "hdn": _hdn_rank,
    "gds": _gds_rank,
    "gputn": _gputn_rank,
}


# --------------------------------------------------------------------------
# Reference + entry point
# --------------------------------------------------------------------------

def allreduce_reference(vectors: List[np.ndarray], n_ranks: int) -> np.ndarray:
    """Bitwise reference: replay the ring reduce order in NumPy.

    Chunk ``c`` accumulates contributions in ring order starting from rank
    ``(c + 1) mod P``, which is what every executor reproduces.
    """
    n = vectors[0].size
    chunk = n // n_ranks
    out = np.empty(n, dtype=_F4)
    for c in range(n_ranks):
        sl = slice(c * chunk, (c + 1) * chunk)
        # Rank c sends v_c; rank c+1 computes v_{c+1} + v_c; rank c+k
        # computes v_{c+k} + acc.  Replaying the exact association order
        # makes the check bitwise, not approximate.
        acc = vectors[(c + 1) % n_ranks][sl] + vectors[c][sl]
        for k in range(2, n_ranks):
            acc = vectors[(c + k) % n_ranks][sl] + acc
        out[sl] = acc
    return out


@dataclass
class AllreduceResult:
    strategy: str
    n_nodes: int
    nbytes: int
    total_ns: int
    correct: bool
    memory_hazards: int = 0
    cpu_busy_ns: int = 0
    per_rank_ns: List[int] = field(default_factory=list)


class AllreduceExperiment(Experiment):
    """One ring Allreduce as a runtime experiment (Figure 10's unit).

    Parameters: ``strategy``, ``n_nodes``, ``nbytes`` (padded up to a
    whole number of float32 chunks, as an MPI implementation would do
    internally for ragged divisions) and the data ``seed``.
    """

    name = "ring-allreduce"
    defaults = {"strategy": "gputn", "n_nodes": 4,
                "nbytes": 8 * 1024 * 1024, "seed": 11}

    @staticmethod
    def padded_nbytes(n_nodes: int, nbytes: int) -> int:
        quantum = n_nodes * _F4.itemsize
        return (nbytes + quantum - 1) // quantum * quantum

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        strategy = params["strategy"]
        if strategy not in _EXECUTORS:
            raise KeyError(f"unknown strategy {strategy!r}; "
                           f"choose from {sorted(_EXECUTORS)}")
        return Cluster(n_nodes=params["n_nodes"], config=config,
                       with_gpu=(strategy != "cpu"), trace=trace)

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        strategy, n_nodes = params["strategy"], params["n_nodes"]
        nbytes = self.padded_nbytes(n_nodes, params["nbytes"])
        states = [_RingRank(cluster[r], r, n_nodes, nbytes, params["seed"])
                  for r in range(n_nodes)]
        initial = [s.vector.view(_F4).copy() for s in states]
        peers = {r: cluster[r] for r in range(n_nodes)}
        for r in range(n_nodes):
            cluster[r].host._ring_state = states[r]  # type: ignore[attr-defined]

        executor = _EXECUTORS[strategy]
        procs = [cluster.spawn(executor(states[r], peers),
                               name=f"allreduce.{strategy}.{r}")
                 for r in range(n_nodes)]
        return {"procs": procs, "states": states, "initial": initial,
                "nbytes": nbytes}

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]):
        procs, states = ctx["procs"], ctx["states"]
        n_nodes = params["n_nodes"]
        expected = allreduce_reference(ctx["initial"], n_nodes)
        correct = all((s.vector.view(_F4) == expected).all() for s in states)
        result = AllreduceResult(
            strategy=params["strategy"], n_nodes=n_nodes,
            nbytes=ctx["nbytes"],
            total_ns=max(p.value for p in procs), correct=correct,
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


def run_ring_allreduce(config: Optional[SystemConfig] = None,
                       strategy: str = "gputn", n_nodes: int = 4,
                       nbytes: int = 8 * 1024 * 1024,
                       seed: int = 11) -> AllreduceResult:
    """Run one 8 MB-class ring Allreduce and verify the result."""
    return AllreduceExperiment().execute(
        {"strategy": strategy, "n_nodes": n_nodes, "nbytes": nbytes,
         "seed": seed},
        config=config,
    ).raw
