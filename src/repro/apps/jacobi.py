"""2D Jacobi relaxation with halo exchange (paper Section 5.3, Figure 9).

The global grid is block-decomposed over a ``px x py`` node grid; each
node owns an ``N x N`` local tile with a one-cell ghost ring.  Every
iteration:

1. a 5-point stencil updates the local interior,
2. edge rows/columns are packed into staging buffers,
3. halos are exchanged with up to four neighbours,
4. ghost rings are unpacked before the next iteration.

The four strategies differ exactly as in the paper:

* **cpu**   -- OpenMP-style host compute; two-sided sends at each round;
* **hdn**   -- one kernel per iteration; the CPU exchanges halos between
  kernels with two-sided send/recv;
* **gds**   -- the CPU pre-stages one-sided puts and enqueues doorbells
  behind each iteration's kernel; ghost arrival is polled on the host
  before the next launch;
* **gputn** -- one kernel per iteration, enqueued back to back; each
  triggers its halo puts in-kernel and polls ghost-arrival flags
  in-kernel, while the CPU re-arms trigger entries off the critical path.

Two extensions are shapes of the same GPU-TN driver: **gputn-overlap**
computes the interior while the halos are in flight, and
**gputn-persistent** runs all iterations in a single persistent kernel.

Numerical correctness is end-to-end: the halo payloads are real floats
and the distributed result is asserted against a single-grid NumPy
reference in the test suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster, Node
from repro.config import SystemConfig
from repro.gpu.kernel import KernelContext, KernelDescriptor
from repro.memory import Agent, Buffer
from repro.runtime import Experiment
from repro.sim import AllOf

__all__ = ["JacobiExperiment", "JacobiResult", "jacobi_reference", "run_jacobi"]

_DIRS = ("north", "south", "west", "east")
_OPP = {"north": "south", "south": "north", "west": "east", "east": "west"}
#: elements are float32
_F4 = np.dtype(np.float32)


# --------------------------------------------------------------------------
# Decomposition
# --------------------------------------------------------------------------

def _node_coords(rank: int, px: int) -> Tuple[int, int]:
    return rank % px, rank // px


def _neighbors(rank: int, px: int, py: int) -> Dict[str, int]:
    """Map direction -> neighbour rank for an interior-truncated grid."""
    x, y = _node_coords(rank, px)
    out: Dict[str, int] = {}
    if y > 0:
        out["north"] = rank - px
    if y < py - 1:
        out["south"] = rank + px
    if x > 0:
        out["west"] = rank - 1
    if x < px - 1:
        out["east"] = rank + 1
    return out


class _JacobiTile:
    """One node's tile: padded local grid plus packing helpers.

    All mutation routes through methods that record memory-model events
    for the acting agent, so fence omissions in the strategy code surface
    as hazards in the tests.
    """

    def __init__(self, node: Node, n: int, rank: int, px: int, py: int,
                 seed: int):
        self.node = node
        self.n = n
        self.rank = rank
        self.neighbors = _neighbors(rank, px, py)
        rng = np.random.default_rng([seed, rank])
        self.grid = np.zeros((n + 2, n + 2), dtype=_F4)
        self.grid[1:-1, 1:-1] = rng.random((n, n), dtype=np.float32)
        edge_bytes = n * _F4.itemsize
        # Double-buffered send staging (parity by iteration) + ghost rx.
        self.send: Dict[Tuple[str, int], Buffer] = {}
        self.ghost: Dict[str, Buffer] = {}
        self.rx_flag: Dict[str, Buffer] = {}
        for d in self.neighbors:
            for parity in (0, 1):
                self.send[(d, parity)] = node.host.alloc(
                    edge_bytes, name=f"{node.name}.send.{d}.{parity}")
            self.ghost[d] = node.host.alloc(edge_bytes, name=f"{node.name}.ghost.{d}")
            self.rx_flag[d] = node.host.alloc(4, name=f"{node.name}.rxflag.{d}")

    # ------------------------------------------------------------- numerics
    def stencil_update(self, agent: Agent) -> None:
        g = self.grid
        new = g.copy()
        new[1:-1, 1:-1] = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1]
                                  + g[1:-1, :-2] + g[1:-1, 2:])
        self.grid = new

    def pack_edges(self, parity: int, agent: Agent, time: int) -> None:
        """Copy interior edges into the parity's staging buffers."""
        g = self.grid
        edges = {
            "north": g[1, 1:-1], "south": g[-2, 1:-1],
            "west": g[1:-1, 1], "east": g[1:-1, -2],
        }
        for d in self.neighbors:
            buf = self.send[(d, parity)]
            buf.view(_F4)[:] = edges[d]
            self.node.mem.record_write(time, agent, buf)

    def unpack_ghosts(self, agent: Agent, time: int) -> None:
        """Copy received halos from ghost buffers into the ghost ring."""
        g = self.grid
        for d in self.neighbors:
            data = self.ghost[d].view(_F4)
            self.node.mem.record_read(time, agent, self.ghost[d])
            if d == "north":
                g[0, 1:-1] = data
            elif d == "south":
                g[-1, 1:-1] = data
            elif d == "west":
                g[1:-1, 0] = data
            else:
                g[1:-1, -1] = data

    # --------------------------------------------------------------- costs
    def stencil_bytes(self) -> int:
        # read + write one float per cell (5-point reads hit cache).
        return 2 * self.n * self.n * _F4.itemsize

    def pack_bytes(self) -> int:
        return 2 * len(self.neighbors) * self.n * _F4.itemsize


# --------------------------------------------------------------------------
# Reference
# --------------------------------------------------------------------------

def jacobi_reference(n: int, px: int, py: int, iters: int, seed: int) -> np.ndarray:
    """Single-grid NumPy reference for the same decomposition seeds."""
    big = np.zeros((py * n + 2, px * n + 2), dtype=_F4)
    for rank in range(px * py):
        x, y = _node_coords(rank, px)
        rng = np.random.default_rng([seed, rank])
        big[1 + y * n:1 + (y + 1) * n, 1 + x * n:1 + (x + 1) * n] = (
            rng.random((n, n), dtype=np.float32))
    for _ in range(iters):
        new = big.copy()
        new[1:-1, 1:-1] = 0.25 * (big[:-2, 1:-1] + big[2:, 1:-1]
                                  + big[1:-1, :-2] + big[1:-1, 2:])
        big = new
    return big[1:-1, 1:-1]


def initial_ghost_fill(tiles: List[_JacobiTile]) -> None:
    """Startup halo exchange: ghost rings see neighbours' *initial* edges.

    Happens once during data distribution (before the timed region), so it
    is applied directly -- every strategy starts from the same state.
    """
    by_rank = {t.rank: t for t in tiles}
    for tile in tiles:
        g = tile.grid
        for d, peer_rank in tile.neighbors.items():
            pg = by_rank[peer_rank].grid
            if d == "north":
                g[0, 1:-1] = pg[-2, 1:-1]
            elif d == "south":
                g[-1, 1:-1] = pg[1, 1:-1]
            elif d == "west":
                g[1:-1, 0] = pg[1:-1, -2]
            else:
                g[1:-1, -1] = pg[1:-1, 1]


def assemble(tiles: List[_JacobiTile], px: int, py: int) -> np.ndarray:
    n = tiles[0].n
    out = np.zeros((py * n, px * n), dtype=_F4)
    for tile in tiles:
        x, y = _node_coords(tile.rank, px)
        out[y * n:(y + 1) * n, x * n:(x + 1) * n] = tile.grid[1:-1, 1:-1]
    return out


# --------------------------------------------------------------------------
# Shared pieces
# --------------------------------------------------------------------------

def _grid_workgroups(node: Node) -> int:
    return node.config.gpu.compute_units


def _wire_tag(rank: int, d: str) -> int:
    return 0x7A00 + rank * 8 + _DIRS.index(d)


def _trig_tag(rank: int, d: str, it: int) -> int:
    """GPU-TN trigger tag of ``rank``'s iteration-``it`` put towards ``d``."""
    return 0x2000 + rank * 4096 + it * len(_DIRS) + _DIRS.index(d)


def _halo_put(tile: _JacobiTile, tiles: List[_JacobiTile], d: str,
              parity: int) -> Dict[str, Any]:
    """The one-sided put shipping ``tile``'s ``d`` edge into the
    neighbour's opposite ghost buffer (put keyword arguments)."""
    buf, peer = tile.send[(d, parity)], tiles[tile.neighbors[d]]
    return {"buf": buf, "nbytes": buf.nbytes, "target": peer.node.name,
            "remote_addr": peer.ghost[_OPP[d]].addr(),
            "wire_tag": _wire_tag(tile.rank, d)}


def _expose_ghost_flags(tile: _JacobiTile) -> None:
    """Arrival flags for the neighbours' one-sided ghost puts."""
    for d, peer_rank in tile.neighbors.items():
        tile.node.nic.expose_rx_flag(_wire_tag(peer_rank, _OPP[d]),
                                     (tile.rx_flag[d], 0))


def _exchange_two_sided(tile: _JacobiTile, tiles: List[_JacobiTile],
                        parity: int):
    """CPU-driven halo exchange: post every receive, send every edge,
    then progress until all ghosts have arrived."""
    host = tile.node.host
    recvs = [host.post_recv(_wire_tag(peer_rank, _OPP[d]), tile.ghost[d],
                            tile.ghost[d].nbytes)
             for d, peer_rank in tile.neighbors.items()]
    for d, peer_rank in tile.neighbors.items():
        buf = tile.send[(d, parity)]
        yield from host.send(buf, buf.nbytes, tiles[peer_rank].node.name,
                             _wire_tag(tile.rank, d))
    for handle in recvs:
        yield from host.wait_recv(handle)


def _iteration_kernel(tile: _JacobiTile, it: int,
                      strategy: str) -> KernelDescriptor:
    """HDN/GDS: one uniform kernel per iteration that unpacks the ghosts
    received since the last one, updates, and publishes its edges before
    exit so the coherent CPU/NIC can ship them at the kernel boundary.
    Work-group 0 does the numerics (zero simulated cost); every group
    charges its share of the streaming time."""
    parity = it & 1

    def kernel(ctx):
        lead, n_wg = ctx.wg_id == 0, ctx.n_workgroups
        if it > 0:
            yield ctx.fence_acquire_system(*tile.ghost.values())
            if lead:
                tile.unpack_ghosts(Agent.GPU, ctx.sim.now)
            yield ctx.compute_bytes(tile.pack_bytes() // n_wg)
        if lead:
            tile.stencil_update(Agent.GPU)
            tile.pack_edges(parity, Agent.GPU, ctx.sim.now)
        yield ctx.compute_bytes((tile.stencil_bytes() + tile.pack_bytes()) // n_wg)
        yield ctx.barrier()
        yield ctx.fence_release_system(*(tile.send[(d, parity)] for d in tile.neighbors))

    return KernelDescriptor(fn=kernel, n_workgroups=_grid_workgroups(tile.node),
                            name=f"jacobi-{strategy}-{it}", uniform=True)


# --------------------------------------------------------------------------
# Per-strategy node drivers
# --------------------------------------------------------------------------

def _cpu_node(tile: _JacobiTile, tiles: List[_JacobiTile], iters: int):
    node, host = tile.node, tile.node.host
    for it in range(iters):
        parity = it & 1
        tile.stencil_update(Agent.CPU)
        tile.pack_edges(parity, Agent.CPU, node.sim.now)
        # OpenMP parallel-region fork/join around the threaded stencil.
        yield node.sim.timeout(node.config.cpu.omp_region_ns)
        yield from host.compute_bytes(tile.stencil_bytes() + tile.pack_bytes(),
                                      phase="jacobi-cpu")
        yield from _exchange_two_sided(tile, tiles, parity)
        tile.unpack_ghosts(Agent.CPU, node.sim.now)
    return node.sim.now


def _hdn_node(tile: _JacobiTile, tiles: List[_JacobiTile], iters: int):
    node, host = tile.node, tile.node.host
    for it in range(iters):
        inst = yield from host.launch_kernel(_iteration_kernel(tile, it, "hdn"))
        # A hand-tuned stencil loop spin-waits on kernel completion (the
        # blocking 10 us sync path belongs to library-mediated waits; see
        # the Allreduce executors).
        yield from host.wait_kernel(inst, mode="spin")
        yield from _exchange_two_sided(tile, tiles, it & 1)
    return node.sim.now


def _gds_node(tile: _JacobiTile, tiles: List[_JacobiTile], iters: int):
    node, host = tile.node, tile.node.host
    _expose_ghost_flags(tile)

    def stage_puts(parity: int):
        handles = []
        for d in tile.neighbors:
            h = yield from host.put(**_halo_put(tile, tiles, d, parity),
                                    deferred=True)
            handles.append(h)
        return handles

    # First iteration's puts must be staged up front; subsequent ones are
    # staged while the previous kernel runs (GDS pre-posts ahead of time).
    staged = yield from stage_puts(0)
    for it in range(iters):
        inst = yield from host.launch_kernel(_iteration_kernel(tile, it, "gds"))
        for h in staged:
            node.gpu.enqueue_doorbell(h)
        if it + 1 < iters:
            staged = yield from stage_puts((it + 1) & 1)  # overlaps kernel
        # No kernel synchronize needed: the command queue orders the
        # doorbells, and the next launch is gated on ghost arrival only.
        for d in tile.neighbors:
            yield from host.poll_flag(tile.rx_flag[d], at_least=it + 1)
    yield inst.finished
    return node.sim.now


def _gputn_iteration(ctx: KernelContext, tile: _JacobiTile, it: int, cost,
                     overlap: bool):
    """One GPU-TN iteration in-kernel: poll for and unpack the
    neighbours' halos, update, publish the edges and trigger their
    pre-registered puts.  Work-group 0 polls, does the numerics and
    triggers; ``cost(nbytes)`` charges streaming work.  With ``overlap``
    only the boundary cells are charged before the triggers and the
    interior after them, so it computes while the exchange is in flight.
    """
    lead = ctx.wg_id == 0
    parity = it & 1
    if it > 0 and lead:
        for d in sorted(tile.neighbors):
            yield from ctx.poll_flag(tile.rx_flag[d], at_least=it)
        yield ctx.fence_acquire_system(*tile.ghost.values())
        tile.unpack_ghosts(Agent.GPU, ctx.sim.now)
        yield cost(tile.pack_bytes())
    if lead:
        # Numerics once up front (timing is charged in phases).
        tile.stencil_update(Agent.GPU)
        tile.pack_edges(parity, Agent.GPU, ctx.sim.now)
    # Overlap charges only the boundary cells (4 edges, read + write) here.
    before = 2 * 4 * tile.n * _F4.itemsize if overlap else tile.stencil_bytes()
    yield cost(before + tile.pack_bytes())
    yield ctx.barrier()
    yield ctx.fence_release_system(*(tile.send[(d, parity)] for d in tile.neighbors))
    if lead:
        for d in sorted(tile.neighbors):
            yield ctx.store_trigger(_trig_tag(tile.rank, d, it))
    if overlap:
        yield cost(max(tile.stencil_bytes() - before, 0))


def _gputn_node(tile: _JacobiTile, tiles: List[_JacobiTile], iters: int,
                shape: str):
    """GPU-TN: halo puts triggered *in-kernel* as soon as the edges are
    published, inbound halos awaited with in-kernel polls, and the CPU
    re-arming trigger entries concurrently (relaxed synchronization,
    §3.2).  ``shape`` is the kernel structure:

    * ``per-iteration`` -- the paper's Figure 9 setup: one kernel per
      iteration, all enqueued back to back; inter-node dependencies are
      enforced by the in-kernel polls, not by the host.  The wire time
      overlaps the kernel tail and the next kernel's launch.
    * ``overlap`` -- extension: the same kernels, but each updates the
      boundary cells first, triggers, and computes the interior while
      the exchange is in flight.  The paper notes its Jacobi "does not
      exploit overlap"; the in-kernel trigger makes it a two-line change
      instead of a kernel split.
    * ``persistent`` -- extension: one kernel runs *all* iterations,
      amortizing launch/teardown across the run.  It is modeled as one
      driving work-group charging whole-device streaming time: real
      implementations synchronize the grid per iteration with
      device-wide atomics, so the slowest path -- which sets the timing
      -- is a single serialized iteration pipeline.
    """
    node, host = tile.node, tile.node.host
    _expose_ghost_flags(tile)
    dirs = sorted(tile.neighbors)

    def batches():
        for it in range(iters):
            yield [dict(_halo_put(tile, tiles, d, it & 1),
                        tag=_trig_tag(tile.rank, d, it), threshold=1)
                   for d in dirs]

    # Entries two iterations back must have fired, so the window frees
    # them: the active-entry count stays within the prototype's 16.
    rearm = node.sim.spawn(host.rearm_triggered_puts(batches(), 2 * len(dirs)),
                           name=f"{node.name}.rearm")

    def persistent_kernel(ctx):
        rate = ctx.config.gpu.stream_bytes_per_ns

        def cost(nbytes: int):
            return ctx.compute(int(nbytes / rate) + 1)

        for it in range(iters):
            yield from _gputn_iteration(ctx, tile, it, cost, overlap=False)

    def iteration_kernel(it: int):
        def kernel(ctx):
            yield from _gputn_iteration(
                ctx, tile, it, lambda b: ctx.compute_bytes(b // ctx.n_workgroups),
                overlap=shape == "overlap")
        return kernel

    if shape == "persistent":
        descs = [KernelDescriptor(fn=persistent_kernel, n_workgroups=1,
                                  args={"persistent": True},
                                  name="jacobi-gputn-persistent")]
    else:
        prefix = "jacobi-gputn-overlap" if shape == "overlap" else "jacobi-gputn"
        descs = (KernelDescriptor(fn=iteration_kernel(it),
                                  n_workgroups=_grid_workgroups(node),
                                  name=f"{prefix}-{it}")
                 for it in range(iters))
    for desc in descs:
        inst = yield from host.launch_kernel(desc)
    yield AllOf(node.sim, [inst.finished, rearm])
    return node.sim.now


_NODE_DRIVERS = {
    "cpu": _cpu_node,
    "hdn": _hdn_node,
    "gds": _gds_node,
    "gputn": partial(_gputn_node, shape="per-iteration"),
    "gputn-persistent": partial(_gputn_node, shape="persistent"),
    "gputn-overlap": partial(_gputn_node, shape="overlap"),
}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

@dataclass
class JacobiResult:
    strategy: str
    n: int
    px: int
    py: int
    iters: int
    total_ns: int
    #: final assembled global grid (for correctness checks)
    grid: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    memory_hazards: int = 0
    cpu_busy_ns: int = 0

    @property
    def per_iteration_ns(self) -> float:
        return self.total_ns / self.iters


class JacobiExperiment(Experiment):
    """The Figure 9 halo-exchange stencil as a runtime experiment.

    Parameters: ``strategy``, local grid size ``n``, node grid ``px`` x
    ``py``, ``iters`` and the decomposition ``seed``.  Metrics include a
    digest of the assembled global grid so determinism tests cover the
    numerics, not just the clock.
    """

    name = "jacobi"
    defaults = {"strategy": "gputn", "n": 128, "px": 2, "py": 2,
                "iters": 1, "seed": 7}

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        strategy = params["strategy"]
        if strategy not in _NODE_DRIVERS:
            raise KeyError(f"unknown strategy {strategy!r}; "
                           f"choose from {sorted(_NODE_DRIVERS)}")
        if params["iters"] < 1:
            raise ValueError(f"iters must be >= 1, got {params['iters']!r}")
        return Cluster(n_nodes=params["px"] * params["py"], config=config,
                       with_gpu=(strategy != "cpu"), trace=trace)

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        strategy = params["strategy"]
        n, px, py = params["n"], params["px"], params["py"]
        iters, seed = params["iters"], params["seed"]
        n_nodes = px * py
        tiles = [_JacobiTile(cluster[r], n, r, px, py, seed)
                 for r in range(n_nodes)]
        initial_ghost_fill(tiles)
        driver = _NODE_DRIVERS[strategy]
        procs = [cluster.spawn(driver(tiles[r], tiles, iters),
                               name=f"jacobi.{strategy}.{r}")
                 for r in range(n_nodes)]
        return {"procs": procs, "tiles": tiles}

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]):
        procs, tiles = ctx["procs"], ctx["tiles"]
        result = JacobiResult(
            strategy=params["strategy"], n=params["n"],
            px=params["px"], py=params["py"], iters=params["iters"],
            total_ns=max(p.value for p in procs),
            grid=assemble(tiles, params["px"], params["py"]),
            memory_hazards=cluster.total_hazards(),
            cpu_busy_ns=cluster.total_cpu_busy_ns(),
        )
        metrics = {
            "total_ns": result.total_ns,
            "per_iteration_ns": result.per_iteration_ns,
            "cpu_busy_ns": result.cpu_busy_ns,
            "grid_sha256": hashlib.sha256(result.grid.tobytes()).hexdigest(),
        }
        return metrics, result


def run_jacobi(config: Optional[SystemConfig] = None, strategy: str = "gputn",
               n: int = 128, px: int = 2, py: int = 2, iters: int = 1,
               seed: int = 7) -> JacobiResult:
    """Run ``iters`` Jacobi iterations of an ``n x n``-per-node grid over a
    ``px x py`` cluster under the given strategy."""
    return JacobiExperiment().execute(
        {"strategy": strategy, "n": n, "px": px, "py": py,
         "iters": iters, "seed": seed},
        config=config,
    ).raw
