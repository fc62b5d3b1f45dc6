"""Tests for the unified experiment runtime (repro.runtime)."""

import gc
import json
import weakref

import pytest

from repro.apps.jacobi import JacobiExperiment
from repro.apps.microbench import MicrobenchExperiment
from repro.collectives import AllreduceExperiment
from repro.config import default_config
from repro.runtime import (
    Experiment,
    Observers,
    ResultCache,
    RunRecord,
    Sweep,
    config_fingerprint,
    run_sweep,
)
from repro.runtime.record import json_safe, make_cache_key


class TestRunRecord:
    def test_json_round_trip_is_identity(self):
        rec = MicrobenchExperiment().run({"strategy": "gputn"})
        again = RunRecord.from_json(rec.to_json())
        assert again == rec
        assert again.to_json() == rec.to_json()
        assert again.fingerprint() == rec.fingerprint()

    def test_canonical_json_is_key_sorted(self):
        rec = RunRecord(experiment="x", params={"b": 1, "a": 2},
                        config_fingerprint="f", metrics={})
        doc = json.loads(rec.to_json())
        assert list(doc["params"]) == sorted(doc["params"])

    def test_spans_normalized_to_tuples(self):
        rec = RunRecord(experiment="x", params={}, config_fingerprint="f",
                        metrics={}, spans=[["n", "a", "p", 1, 2]])
        assert rec.spans == (("n", "a", "p", 1, 2),)

    def test_non_scalar_metric_rejected(self):
        with pytest.raises(TypeError, match="JSON-safe"):
            RunRecord(experiment="x", params={}, config_fingerprint="f",
                      metrics={"bad": object()})

    def test_json_safe_unwraps_numpy(self):
        import numpy as np
        assert json_safe(np.int64(3)) == 3
        assert json_safe(np.bool_(True)) is True


class TestConfigFingerprint:
    def test_stable_and_sensitive(self):
        base = default_config()
        assert config_fingerprint(base) == config_fingerprint(default_config())
        tweaked = base.with_(network=base.network.__class__(bandwidth_gbps=200))
        assert config_fingerprint(tweaked) != config_fingerprint(base)


class TestExperimentLifecycle:
    def test_execute_returns_record_raw_cluster(self):
        ex = MicrobenchExperiment().execute({"strategy": "gds"})
        assert ex.record.experiment == "microbench"
        assert ex.record.params["strategy"] == "gds"
        assert ex.raw.strategy == "gds"
        assert ex.cluster.tracer.spans  # traced by default
        assert ex.record.spans  # decomposition captured in the record

    def test_defaults_merged_under_point(self):
        rec = JacobiExperiment().run({"n": 8})
        assert rec.params["strategy"] == "gputn"  # default
        assert rec.params["n"] == 8

    def test_failed_process_raises(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            JacobiExperiment().run({"strategy": "nope"})

    def test_untraced_run_has_no_spans(self):
        rec = JacobiExperiment().run({"n": 8})
        assert rec.spans == ()

    def test_trace_opt_in(self):
        rec = JacobiExperiment().run({"n": 8}, trace=True)
        assert rec.spans

    def test_wrappers_match_experiment(self):
        from repro.apps.jacobi import run_jacobi
        raw = run_jacobi(n=8, iters=1)
        rec = JacobiExperiment().run({"n": 8, "iters": 1})
        assert rec.metrics["total_ns"] == raw.total_ns

    def test_run_releases_buffer_payloads(self):
        """A finished cluster is cyclic garbage; run() frees its buffer
        payloads itself instead of leaving them to the next full
        collection, and the record does not change."""
        payloads = []

        def watch_allocs(cluster):
            for node in cluster:
                alloc = node.space.alloc

                def tracking_alloc(*args, _alloc=alloc, **kwargs):
                    buf = _alloc(*args, **kwargs)
                    payloads.append(weakref.ref(buf.data))
                    return buf
                node.space.alloc = tracking_alloc

        point = {"strategy": "gputn", "n_nodes": 2, "nbytes": 1024}
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            record = AllreduceExperiment().run(
                point, observers=Observers(instruments=(watch_allocs,)))
            assert payloads
            assert all(ref() is None for ref in payloads)
        finally:
            if gc_was_enabled:
                gc.enable()
        execution = AllreduceExperiment().execute(point)
        kept = list(execution.cluster[0].space.buffers())
        assert kept and all(b.data is not None for b in kept)  # execute() keeps them
        assert record.to_json() == execution.record.to_json()


class TestSweep:
    def test_grid_order_first_key_slowest(self):
        sweep = Sweep(JacobiExperiment(),
                      grid={"strategy": ["hdn", "cpu"], "n": [8, 16]})
        pts = sweep.sweep_points()
        assert [(p["strategy"], p["n"]) for p in pts] == [
            ("hdn", 8), ("hdn", 16), ("cpu", 8), ("cpu", 16)]

    def test_explicit_points_override_grid(self):
        sweep = Sweep(JacobiExperiment(), grid={"n": [1, 2, 3]},
                      base={"iters": 1}, points=[{"n": 8}])
        assert sweep.sweep_points() == [{"iters": 1, "n": 8}]

    def test_run_sweep_returns_point_order(self):
        records = run_sweep(AllreduceExperiment(),
                            grid={"n_nodes": [3, 2]},
                            base={"nbytes": 4 * 1024})
        assert [r.params["n_nodes"] for r in records] == [3, 2]

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            Sweep(JacobiExperiment()).run(jobs=0)


class TestResultCache:
    def test_hit_equals_fresh_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = Sweep(AllreduceExperiment(),
                      grid={"strategy": ["gputn"], "n_nodes": [2, 3]},
                      base={"nbytes": 4 * 1024})
        fresh = sweep.run(cache=cache)
        assert cache.misses == 2 and len(cache) == 2
        cached = sweep.run(cache=cache)
        assert cache.hits == 2
        assert [r.to_json() for r in cached] == [r.to_json() for r in fresh]
        # And equal to a totally cache-less run.
        bare = sweep.run()
        assert [r.to_json() for r in bare] == [r.to_json() for r in fresh]

    def test_key_sensitive_to_params_config_version(self):
        fp = config_fingerprint(default_config())
        k = make_cache_key("e", {"a": 1}, fp)
        assert k != make_cache_key("e", {"a": 2}, fp)
        assert k != make_cache_key("e2", {"a": 1}, fp)
        assert k != make_cache_key("e", {"a": 1}, "other")
        assert k != make_cache_key("e", {"a": 1}, fp, code_version="0.0.0")

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        rec = AllreduceExperiment().run({"n_nodes": 2, "nbytes": 1024})
        path = cache.put(rec)
        path.write_text("{not json")
        assert cache.get(rec.experiment, rec.params,
                         rec.config_fingerprint) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        rec = AllreduceExperiment().run({"n_nodes": 2, "nbytes": 1024})
        cache.put(rec)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestExperimentBaseErrors:
    def test_abstract_hooks_raise(self):
        ex = Experiment()
        with pytest.raises(NotImplementedError):
            ex.run()
