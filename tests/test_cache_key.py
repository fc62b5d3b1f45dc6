"""One point key for cache lookup and put.

A resubmitted campaign must resolve entirely from the result cache.
The service probes the cache with the key of each point's *effective*
config (after ``Experiment.configure``), the same key
``Experiment.execute`` stamps on the record it puts.  The cases below
cover every shipped experiment that overrides ``configure()``; each
rewrites the config per point, which is where a lookup keyed on the
base config used to miss.
"""

import importlib
import pkgutil
from types import SimpleNamespace

import pytest

import repro

from repro.apps.congestion import CongestionExperiment, run_congestion_campaign
from repro.apps.topo_scale import run_topo_campaign
from repro.collectives.engine import AllreduceExperiment, CollectiveExperiment
from repro.config import default_config
from repro.runtime import Experiment, ResultCache, Sweep
from repro.runtime.record import config_fingerprint, make_cache_key
from repro.service import Job, JobStore
from repro.validate.fuzz import ValidateExperiment, run_campaign
from repro.version import __version__


class KeyRecordingCache(ResultCache):
    """A result cache that remembers every key ``get`` probes."""

    def __init__(self, root):
        super().__init__(root)
        self.probed = []

    def get(self, experiment, params, config_fp, code_version=__version__):
        self.probed.append(make_cache_key(experiment, params, config_fp,
                                          code_version))
        return super().get(experiment, params, config_fp, code_version)


def _congestion(cache, store):
    return run_congestion_campaign(
        loads=[0.2], disciplines=["drop-tail"],
        transports=["selective-repeat"], strategies=["gds", "gputn"],
        messages=4, bg_horizon_ns=20_000, cache=cache, store=store)


def _topo(cache, store):
    return run_topo_campaign(
        topologies=("fat-tree",), schedules=("alltoall",),
        strategies=("gputn", "gds"), node_counts=(8,), nbytes=8 * 1024,
        cache=cache, store=store)


def _fig10(cache, store):
    sweep = Sweep(AllreduceExperiment(),
                  grid={"strategy": ["gds", "gputn"], "n_nodes": [2, 3]},
                  base={"nbytes": 16 * 1024})
    records = Job.from_sweep(sweep, cache=cache, store=store).run()
    return SimpleNamespace(ok=all(r.metrics["correct"] for r in records),
                           records=records, cache_stats=cache.stats())


def _validate(cache, store):
    return run_campaign(workloads=("microbench",), seeds=2,
                        cache=cache, store=store)


#: Every shipped experiment that overrides configure(), with a tiny
#: campaign through its driver.
CAMPAIGNS = {
    CongestionExperiment: _congestion,
    CollectiveExperiment: _topo,
    AllreduceExperiment: _fig10,
    ValidateExperiment: _validate,
}


def _shipped_experiments():
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        if not mod.name.endswith("__main__"):
            importlib.import_module(mod.name)
    seen, todo = set(), [Experiment]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("repro.") and sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return seen


def test_every_configure_override_is_covered():
    overriding = {cls for cls in _shipped_experiments()
                  if cls.configure is not Experiment.configure}
    assert overriding == set(CAMPAIGNS)


@pytest.mark.parametrize("experiment", list(CAMPAIGNS),
                         ids=lambda cls: cls.__name__)
def test_resubmitted_campaign_resolves_from_cache(tmp_path, experiment):
    campaign = CAMPAIGNS[experiment]
    cache_root = tmp_path / "cache"
    cold = campaign(ResultCache(cache_root), JobStore(tmp_path / "jobs-cold"))
    assert cold.ok
    points = len(cold.records)
    assert cold.cache_stats == {"hits": 0, "misses": points}

    recording = KeyRecordingCache(cache_root)
    warm = campaign(recording, JobStore(tmp_path / "jobs-warm"))
    assert warm.cache_stats == {"hits": points, "misses": 0}
    assert ([r.to_json() for r in warm.records]
            == [r.to_json() for r in cold.records])
    assert recording.probed == [r.cache_key() for r in cold.records]


def test_lookup_keys_on_the_effective_config():
    """The probe key follows configure(), not the base config."""
    experiment = CongestionExperiment()
    point = {"topology": "fat-tree:k=4"}
    params, config, config_fp = experiment.resolve_point(point)
    assert config.network.topology == "fat-tree:k=4"
    assert config_fp == config_fingerprint(config)
    assert config_fp != config_fingerprint(default_config())
    assert params == experiment.resolve_params(point)
