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
        cluster.sim.add_step_probe(probe)
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
    gpu.probes.append(lambda kind, now, d: log.append(
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
