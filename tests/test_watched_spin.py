"""Whole-experiment differential test of watched spin waits.

Every fuzz workload, at each seed's knob vector (whose
``completion_write_ns`` makes writes land on poll instants), is run
twice, untraced and with unseeded tie-breaks: once as shipped, where
flag polls and progress waits sleep until written, and once with the
watched form switched off, so every failed poll ticks.  The records
must be byte-identical.  The watched form must also engage: the Fig 10
allreduce at 1 MiB x 8 nodes pops far fewer events.  So must gang
work-groups (DESIGN.md §5), against the per-work-group path.
"""

import pytest

from repro.collectives import AllreduceExperiment
from repro.config import default_config
from repro.gpu.device import Gpu
from repro.sim import Simulator
from repro.validate.fuzz import FUZZ_WORKLOADS, _workload_experiment, apply_knobs, fuzz_case

SEEDS = range(20)

#: Events the ticking form pops at 1 MiB x 8 nodes (the count before
#: spins could sleep), with HDN/GDS reduce kernels run as gangs.
TICKING_EVENTS_1MIB_8 = {"cpu": 11_112, "hdn": 11_848, "gds": 32_688,
                         "gputn": 15_016}

#: Events popped at 1 MiB x 8 nodes, as shipped and with every
#: work-group its own process.
GANG_EVENTS_1MIB_8 = {"hdn": (1_992, 11_008), "gds": (1_936, 10_952)}


def _execute(monkeypatch, experiment, params, config, watched, gang=True):
    if not gang:
        monkeypatch.setattr(Gpu, "_gangs", lambda self, desc: False)
    if not watched:
        spin = Simulator.spin
        monkeypatch.setattr(Simulator, "spin",
                            lambda self, probe, watch=None: spin(self, probe))
    try:
        execution = experiment.execute(params, config, trace=False)
    finally:
        monkeypatch.undo()
    return execution.record.to_json(), execution.cluster.sim.events_processed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", FUZZ_WORKLOADS)
def test_fuzz_case_records_identical(monkeypatch, workload, seed):
    case = fuzz_case(workload, seed)
    experiment = _workload_experiment(workload)
    config = apply_knobs(default_config(), case.knobs)
    watched, events = _execute(monkeypatch, experiment, case.inner_params,
                               config, watched=True)
    ticking, ticks = _execute(monkeypatch, experiment, case.inner_params,
                              config, watched=False)
    assert watched == ticking
    assert events <= ticks


@pytest.mark.parametrize("strategy", sorted(TICKING_EVENTS_1MIB_8))
def test_watched_form_engages(monkeypatch, strategy):
    params = {"strategy": strategy, "n_nodes": 8, "nbytes": 1 << 20}
    config = default_config()
    watched, events = _execute(monkeypatch, AllreduceExperiment(), params,
                               config, watched=True)
    ticking, ticks = _execute(monkeypatch, AllreduceExperiment(), params,
                              config, watched=False)
    assert watched == ticking
    assert ticks == TICKING_EVENTS_1MIB_8[strategy]
    assert events < ticks


@pytest.mark.parametrize("strategy", sorted(GANG_EVENTS_1MIB_8))
def test_gang_engages(monkeypatch, strategy):
    params = {"strategy": strategy, "n_nodes": 8, "nbytes": 1 << 20}
    config = default_config()
    gang, events = _execute(monkeypatch, AllreduceExperiment(), params,
                            config, watched=True)
    per_wg, per_wg_events = _execute(monkeypatch, AllreduceExperiment(),
                                     params, config, watched=True, gang=False)
    assert gang == per_wg
    assert (events, per_wg_events) == GANG_EVENTS_1MIB_8[strategy]
