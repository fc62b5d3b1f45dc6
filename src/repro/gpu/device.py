"""The GPU device: front-end scheduler plus compute units.

Work-groups are simulation processes; at most one work-group occupies a
compute unit at a time (a deliberate simplification -- see DESIGN.md §5 --
that also mirrors the occupancy requirement persistent kernels place on
real hardware: a persistent kernel must fit entirely on the device or its
polling work-groups deadlock).

The front end consumes one :class:`~repro.gpu.queue.CommandQueue` in
order: kernels pay launch latency, execute all work-groups, pay teardown;
doorbell commands ring the NIC at the kernel boundary (the GDS model).

A kernel declared ``uniform`` (:class:`~repro.gpu.kernel.KernelDescriptor`)
runs as one *gang* process when tie-breaks are unseeded and its whole
grid fits on the free CUs: work-group 0's pops, with all ``n`` CUs held,
``n`` start/end probes and ``n`` counted work-groups.  The other
work-groups' pops would only repeat work-group 0's at the same instants,
so every kept event pops in the same order and records are
byte-identical to the per-work-group path (DESIGN.md §5).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.config import SystemConfig
from repro.gpu.dispatcher import ConstantLaunchModel, LaunchLatencyModel
from repro.gpu.kernel import KernelContext, KernelDescriptor
from repro.gpu.queue import CommandQueue, DoorbellCommand, KernelDispatchCommand
from repro.sim import AllOf, Event, Resource, Simulator, Tracer

__all__ = ["Gpu", "KernelInstance"]


class KernelInstance:
    """A launched kernel: join on ``started`` / ``finished``."""

    def __init__(self, cmd: KernelDispatchCommand):
        self._cmd = cmd
        self.desc = cmd.desc

    @property
    def started(self) -> Event:
        return self._cmd.started

    @property
    def finished(self) -> Event:
        return self._cmd.finished


class Gpu:
    """One GPU device on a node.

    Each work-group is a process holding one CU; a uniform kernel whose
    grid fits runs as a single gang process instead (see the module
    docstring).  ``stats["workgroups"]`` and the ``wg-start``/``wg-end``
    probes count every work-group either way.
    """

    def __init__(self, sim: Simulator, node: str, config: SystemConfig,
                 space, mem, nic, tracer: Optional[Tracer] = None,
                 launch_model: Optional[LaunchLatencyModel] = None):
        self.sim = sim
        self.node = node
        self.config = config
        self.space = space
        self.mem = mem
        self.nic = nic
        self.tracer = tracer or Tracer(enabled=False)
        self.launch_model = launch_model or ConstantLaunchModel.from_config(config.kernel)
        self.queue = CommandQueue(sim, name=f"{node}.gpuq")
        self.cus = Resource(sim, capacity=config.gpu.compute_units,
                            name=f"{node}.cus")
        self.stats = {"kernels": 0, "workgroups": 0, "doorbells": 0}
        self._gpu_probes = sim.probes.gpu
        # The front end is a callback state machine started by a boot
        # event.  Its event count and seq numbering are pinned by the
        # golden RunRecord fixtures, so rewriting it (e.g. back into a
        # generator process) must keep both.
        boot = Event(sim, name=f"boot:{node}.gpu.frontend")
        boot.callbacks.append(self._fe_boot)
        boot.succeed()

    # ------------------------------------------------------------ dispatch
    def launch(self, desc: KernelDescriptor) -> KernelInstance:
        """Enqueue a kernel dispatch (the HW-side half of a launch; the
        host runtime charges its own software cost before calling this)."""
        if desc.args.get("persistent") and desc.n_workgroups > self.cus.capacity:
            raise ValueError(
                f"persistent kernel {desc.name!r} needs {desc.n_workgroups} "
                f"work-groups but only {self.cus.capacity} CUs exist; "
                "it would deadlock on real hardware"
            )
        return KernelInstance(self.queue.submit_kernel(desc))

    def enqueue_doorbell(self, handle) -> DoorbellCommand:
        """Queue a kernel-boundary NIC doorbell behind earlier commands
        (the GDS mechanism)."""
        return self.queue.submit_doorbell(handle)

    # ------------------------------------------------------------ internals
    # Front-end command loop, spelled as chained callbacks: _fe_boot ->
    # _fe_wait -> _fe_cmd -> (kernel chain | doorbell) -> _fe_wait ...
    # Each handler attaches at the exact callback position the old
    # generator's _resume occupied, so event order is byte-identical.
    def _fe_boot(self, _ev: Event) -> None:
        self._fe_wait()

    def _fe_wait(self) -> None:
        self.queue.pop().callbacks.append(self._fe_cmd)

    def _fe_cmd(self, ev: Event) -> None:
        cmd = ev.value
        if isinstance(cmd, KernelDispatchCommand):
            self._fe_launch(cmd)
        elif isinstance(cmd, DoorbellCommand):
            self.nic.ring_doorbell(cmd.handle)
            self.stats["doorbells"] += 1
            cmd.rung.succeed(self.sim.now)
            self._fe_wait()
        else:  # pragma: no cover - future command types
            raise TypeError(f"unknown GPU command {cmd!r}")

    def _fe_launch(self, cmd: KernelDispatchCommand) -> None:
        depth = self.queue.depth + 1  # this command plus whatever is behind it
        launch_ns = self.launch_model.launch_ns(depth)
        self.tracer.begin(self.sim.now, self.node, "gpu", "kernel-launch",
                          kernel=cmd.desc.name)
        launched = self.sim.timeout(launch_ns)
        launched.callbacks.append(
            partial(self._fe_exec, cmd, depth, launch_ns))

    def _fe_exec(self, cmd: KernelDispatchCommand, depth: int,
                 launch_ns: int, _ev: Event) -> None:
        desc = cmd.desc
        self.tracer.end(self.sim.now, self.node, "gpu", "kernel-launch",
                        kernel=desc.name)
        if self._gpu_probes:
            detail = {"kernel": desc.name, "latency_ns": launch_ns}
            for probe in self._gpu_probes:
                probe(self.node, "kernel-launch", self.sim.now, detail)
        cmd.started.succeed(self.sim.now)

        self.tracer.begin(self.sim.now, self.node, "gpu", "kernel-exec",
                          kernel=desc.name)
        if self._gangs(desc):
            workgroups: List[Event] = [self.sim.spawn(
                self._workgroup(desc, 0, desc.n_workgroups),
                name=f"{desc.name}.wg0")]
        else:
            workgroups = [
                self.sim.spawn(self._workgroup(desc, wg_id),
                               name=f"{desc.name}.wg{wg_id}")
                for wg_id in range(desc.n_workgroups)
            ]
        joined = AllOf(self.sim, workgroups)
        joined.callbacks.append(partial(self._fe_executed, cmd, depth))

    def _fe_executed(self, cmd: KernelDispatchCommand, depth: int,
                     ev: Event) -> None:
        desc = cmd.desc
        if not ev.ok:
            # A kernel fault: propagate to whoever joins on the kernel and
            # keep the front end alive for subsequent commands.
            self.tracer.end(self.sim.now, self.node, "gpu", "kernel-exec",
                            kernel=desc.name, fault=repr(ev.value))
            cmd.finished.fail(ev.value)
            self._fe_wait()
            return
        self.tracer.end(self.sim.now, self.node, "gpu", "kernel-exec",
                        kernel=desc.name)

        teardown_ns = self.launch_model.teardown_ns(depth)
        self.tracer.begin(self.sim.now, self.node, "gpu", "kernel-teardown",
                          kernel=desc.name)
        torndown = self.sim.timeout(teardown_ns)
        torndown.callbacks.append(
            partial(self._fe_retired, cmd, teardown_ns))

    def _fe_retired(self, cmd: KernelDispatchCommand, teardown_ns: int,
                    _ev: Event) -> None:
        desc = cmd.desc
        self.tracer.end(self.sim.now, self.node, "gpu", "kernel-teardown",
                        kernel=desc.name)
        if self._gpu_probes:
            detail = {"kernel": desc.name, "latency_ns": teardown_ns}
            for probe in self._gpu_probes:
                probe(self.node, "kernel-teardown", self.sim.now, detail)
        self.stats["kernels"] += 1
        cmd.finished.succeed(self.sim.now)
        self._fe_wait()

    def _gangs(self, desc: KernelDescriptor) -> bool:
        """Whether ``desc`` runs as one gang process (DESIGN.md §5): it is
        declared uniform, tie-breaks are unseeded, and every work-group
        gets a CU at once."""
        return (desc.uniform and not self.sim.tiebreaks_seeded
                and desc.n_workgroups <= self.cus.available)

    def _workgroup(self, desc: KernelDescriptor, wg_id: int, gang: int = 1):
        """Work-group ``wg_id``'s process.  With ``gang=n`` it also stands
        for work-groups ``wg_id+1 .. wg_id+n-1`` of a uniform kernel: it
        holds their CUs, emits their probes and counts them, and its pops
        are exactly the ones ``wg_id`` would make on its own."""
        cus = self.cus
        yield cus.acquire(gang)
        if self._gpu_probes:
            for wg in range(wg_id, wg_id + gang):
                detail = {"kernel": desc.name, "wg": wg, "in_use": cus.in_use,
                          "capacity": cus.capacity}
                for probe in self._gpu_probes:
                    probe(self.node, "wg-start", self.sim.now, detail)
        try:
            ctx = KernelContext(self.sim, self, desc, wg_id)
            gen = desc.fn(ctx)
            if gen is not None and hasattr(gen, "send"):
                yield from gen
            self.stats["workgroups"] += gang
        finally:
            for wg in range(wg_id, wg_id + gang):
                cus.release()
                if self._gpu_probes:
                    detail = {"kernel": desc.name, "wg": wg,
                              "in_use": cus.in_use, "capacity": cus.capacity}
                    for probe in self._gpu_probes:
                        probe(self.node, "wg-end", self.sim.now, detail)
