"""Differential tests of gang work-groups (DESIGN.md §5).

A kernel declared ``uniform`` runs as one gang process when tie-breaks
are unseeded and its grid fits on the free CUs.  Each workload here runs
twice: as shipped, and with the gang path switched off for the run, so
every work-group is its own process.  Records must be byte-identical,
every pop that is not a work-group's must come at the same instant in
the same order, and the gang must pop fewer events.  The Gpu-level
tests pin what the gang reports on behalf of the work-groups it stands
for.
"""

import re

import numpy as np
import pytest

from repro.apps.jacobi import JacobiExperiment
from repro.cluster import Cluster
from repro.collectives import (AllreduceExperiment, CollectiveExperiment,
                               SCHEDULE_BUILDERS)
from repro.config import default_config
from repro.gpu.device import Gpu
from repro.gpu.kernel import KernelDescriptor
from repro.runtime.observers import Observers
from repro.sim.process import Process
from repro.validate.fuzz import _workload_experiment, apply_knobs, fuzz_case

FIG10_NODES = (2, 5, 8, 11)


_WG_PROCESS = re.compile(r"\.wg\d+$")


def _is_workgroup_pop(event):
    """Whether ``event`` belongs to a work-group process: the process
    itself, or an event whose callbacks resume one."""
    for owner in (event, *(getattr(cb, "__self__", None)
                           for cb in event.callbacks)):
        if isinstance(owner, Process) and _WG_PROCESS.search(owner.name):
            return True
    return False


def _label(event):
    fn = getattr(event, "_fn", None)
    if fn is not None:
        return getattr(fn, "__qualname__", repr(fn))
    owners = [cb.__self__.name for cb in event.callbacks
              if isinstance(getattr(cb, "__self__", None), Process)]
    # Ids come from process-wide counters, so two runs differ in them.
    return re.sub(r"\d+", "#", f"{type(event).__name__}:{event.name}:{owners}")


def _pop_logger(log):
    """An instrument recording every pop that is not a work-group's."""
    def instrument(cluster):
        def probe(t, prio, tie, seq, event):
            if not _is_workgroup_pop(event):
                log.append((t, prio, _label(event)))
        cluster.sim.probes.step.append(probe)
    return instrument


def _execute(monkeypatch, experiment, params, config=None, *, gang,
             trace=False, observers=None):
    if not gang:
        monkeypatch.setattr(Gpu, "_gangs", lambda self, desc: False)
    try:
        execution = experiment.execute(params, config, trace=trace,
                                       observers=observers)
    finally:
        monkeypatch.undo()
    return execution.record, execution.cluster.sim.events_processed


def _assert_identical(monkeypatch, experiment, params, config=None, **kw):
    """Records equal, and -- in a second, probed pair of runs -- every pop
    outside the work-groups at the same instant in the same order."""
    gang, events = _execute(monkeypatch, experiment, params, config,
                            gang=True, **kw)
    per_wg, per_wg_events = _execute(monkeypatch, experiment, params, config,
                                     gang=False, **kw)
    assert gang.to_json() == per_wg.to_json()
    logs = ([], [])
    for log, on in zip(logs, (True, False)):
        _execute(monkeypatch, experiment, params, config, gang=on,
                 observers=Observers(instruments=(_pop_logger(log),)), **kw)
    assert logs[0] == logs[1]
    return events, per_wg_events


@pytest.mark.parametrize("n_nodes", FIG10_NODES)
@pytest.mark.parametrize("strategy", ["hdn", "gds"])
def test_fig10_grid_identical(monkeypatch, strategy, n_nodes):
    params = {"strategy": strategy, "n_nodes": n_nodes, "nbytes": 1 << 20}
    events, per_wg = _assert_identical(monkeypatch, AllreduceExperiment(),
                                       params)
    assert events < per_wg


@pytest.mark.parametrize("n_nodes", [4, 8])
@pytest.mark.parametrize("topology", ["star", "fat-tree:k=4"])
@pytest.mark.parametrize("schedule", sorted(SCHEDULE_BUILDERS))
def test_zoo_identical(monkeypatch, schedule, topology, n_nodes):
    for strategy in ("hdn", "gds"):
        params = {"schedule": schedule, "strategy": strategy,
                  "topology": topology, "n_nodes": n_nodes}
        _assert_identical(monkeypatch, CollectiveExperiment(), params)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("strategy", ["hdn", "gds"])
def test_jacobi_identical(monkeypatch, strategy, trace):
    events, per_wg = _assert_identical(monkeypatch, JacobiExperiment(),
                                       {"strategy": strategy}, trace=trace)
    assert events < per_wg


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("workload", ["allreduce", "jacobi"])
def test_fuzz_case_identical(monkeypatch, workload, seed):
    """Fuzz knob vectors with unseeded tie-breaks (seeded runs never
    gang, see test_seeded_tiebreaks_keep_per_workgroup_path)."""
    case = fuzz_case(workload, seed)
    config = apply_knobs(default_config(), case.knobs)
    events, per_wg = _assert_identical(
        monkeypatch, _workload_experiment(workload), case.inner_params, config)
    assert events <= per_wg


def test_telemetry_identical_but_sim_events(monkeypatch):
    params = {"strategy": "hdn", "n_nodes": 2, "nbytes": 64 * 1024}
    records = [
        _execute(monkeypatch, AllreduceExperiment(), params, gang=gang,
                 observers=Observers(metrics=True))[0]
        for gang in (True, False)
    ]
    gang, per_wg = (r.telemetry for r in records)
    assert gang["counters"].pop("sim.events") < per_wg["counters"].pop(
        "sim.events")
    assert gang == per_wg
    assert "node0.gpu.cu_occupancy" in gang["gauges"]
    records[0].telemetry = records[1].telemetry = {}
    assert records[0].to_json() == records[1].to_json()


# ----------------------------------------------------------------- Gpu level

def _uniform_kernel(ctx):
    yield ctx.compute(100)
    yield ctx.barrier()


def _launch(monkeypatch, n_workgroups, *, gang=True, seed=None):
    """Run one uniform kernel on a fresh node; returns the GPU, its probe
    log of ``(kind, wg, in_use)`` and the events popped."""
    if not gang:
        monkeypatch.setattr(Gpu, "_gangs", lambda self, desc: False)
    cluster = Cluster(n_nodes=1)
    if seed is not None:
        cluster.sim.seed_tiebreaks(seed)
    gpu = cluster[0].gpu
    log = []
    cluster.sim.probes.gpu.append(lambda node, kind, now, d: log.append(
        (kind, d.get("wg"), d.get("in_use"))))
    inst = gpu.launch(KernelDescriptor(fn=_uniform_kernel,
                                       n_workgroups=n_workgroups,
                                       uniform=True))
    cluster.sim.run_until_event(inst.finished)
    monkeypatch.undo()
    return gpu, log, cluster.sim.events_processed


def test_gang_probes_report_every_workgroup(monkeypatch):
    n = 6
    gpu, log, events = _launch(monkeypatch, n)
    wg_log = [entry for entry in log if entry[0].startswith("wg-")]
    assert wg_log == ([("wg-start", wg, n) for wg in range(n)]
                      + [("wg-end", wg, n - 1 - wg) for wg in range(n)])
    assert gpu.stats["workgroups"] == n
    assert gpu.cus.in_use == 0
    per_wg_gpu, per_wg_log, per_wg_events = _launch(monkeypatch, n,
                                                    gang=False)
    assert per_wg_log == log
    assert per_wg_gpu.stats == gpu.stats
    assert events < per_wg_events


def test_wider_than_free_cus_runs_per_workgroup(monkeypatch):
    n = default_config().gpu.compute_units + 3  # a second wave
    gpu, log, events = _launch(monkeypatch, n)
    _, per_wg_log, per_wg_events = _launch(monkeypatch, n, gang=False)
    assert (log, events) == (per_wg_log, per_wg_events)
    assert gpu.stats["workgroups"] == n


def test_seeded_tiebreaks_keep_per_workgroup_path(monkeypatch):
    _, log, events = _launch(monkeypatch, 6, seed=7)
    _, per_wg_log, per_wg_events = _launch(monkeypatch, 6, gang=False, seed=7)
    assert (log, events) == (per_wg_log, per_wg_events)


# ------------------------------------------- the kernel's first and last instants

def _edge_kernel(ctx):
    """Uniform: work-group 0 does the zero-time data work for all of them
    -- a flag store as the kernel starts, a data store as it ends, both
    without a system-scope release -- and every work-group computes the
    same."""
    if ctx.wg_id == 0:
        ctx.write(ctx.arg("flag"), np.ones(1, np.uint32))
    yield ctx.compute(100)
    yield ctx.barrier()
    if ctx.wg_id == 0:
        ctx.write(ctx.arg("data"), np.full(4, 7, np.uint32))


def _edge_run(monkeypatch, *, gang, end_at=None, steps=4):
    """Run :func:`_edge_kernel` with a host process that samples the node
    in ``steps`` pops, chained by zero-delay timeouts, at the kernel's
    first instant (from its ``started`` event on) and, given ``end_at``,
    at that instant (from a timeout scheduled before the kernel launched,
    so it pops ahead of the kernel's last pop there).  Each sample reads the flag and the data
    with CPU loads, so stale reads log hazards.

    Returns the samples, every pop outside the work-groups, the hazards,
    the GPU stats and the instant the last work-group ended."""
    if not gang:
        monkeypatch.setattr(Gpu, "_gangs", lambda self, desc: False)
    cluster = Cluster(n_nodes=1, trace=False)
    sim, node = cluster.sim, cluster[0]
    gpu, host = node.gpu, node.host
    pops, samples, ends = [], [], []
    _pop_logger(pops)(cluster)
    sim.probes.gpu.append(lambda node, kind, now, d: kind == "wg-end"
                          and ends.append(now))
    flag, data = host.alloc(4, name="flag"), host.alloc(16, name="data")

    def sample(label):
        for step in range(steps):
            if step:
                yield sim.timeout(0)
            samples.append((label, sim.now,
                            int(host.cpu_read(flag, np.uint32)[0]),
                            int(host.cpu_read(data, np.uint32)[0]),
                            gpu.cus.in_use))

    def at_start(inst):
        yield inst.started
        yield from sample("start")

    def at_end():
        yield sim.timeout(end_at)
        yield from sample("end")

    if end_at is not None:
        sim.spawn(at_end(), name="edge-end")
    inst = gpu.launch(KernelDescriptor(fn=_edge_kernel, n_workgroups=6,
                                       uniform=True,
                                       args={"flag": flag, "data": data}))
    sim.spawn(at_start(inst), name="edge-start")
    sim.run()
    monkeypatch.undo()
    hazards = [str(h) for h in node.mem.hazards]
    return samples, pops, hazards, dict(gpu.stats), max(ends)


def test_events_at_kernel_first_and_last_instants(monkeypatch):
    """Host loads land on the gang's first instant (between its boot and
    CU-acquire pops) and on its last one (before, between and after its
    exit pops).  The gang must show them what the per-work-group path
    shows: the same values, the same CU occupancy, the same stale-read
    hazards, and every other pop in the same order."""
    *_, end = _edge_run(monkeypatch, gang=False)
    per_wg = _edge_run(monkeypatch, gang=False, end_at=end)
    gang = _edge_run(monkeypatch, gang=True, end_at=end)
    samples = per_wg[0]
    # The workload does reach both instants, and sees each change there.
    assert {label for label, *_ in samples} == {"start", "end"}
    start = [s for s in samples if s[0] == "start"]
    last = [s for s in samples if s[0] == "end"]
    assert {s[1] for s in last} == {end}
    assert start[0][2] == 0 and start[-1][2] == 1      # flag store seen
    assert last[0][4] == 6 and last[-1][4] == 0        # CUs freed there
    assert last[0][3] == 0 and last[-1][3] == 7        # data store seen
    assert per_wg[2]                                   # stale CPU reads
    assert gang[:4] == per_wg[:4]
