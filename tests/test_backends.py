"""Tests for the local-directory store: ResultCache keeps its entries as
sharded JSON files under one root directory."""

from repro.runtime.cache import ResultCache
from repro.runtime.record import RunRecord


def _record(i=0, experiment="bk"):
    return RunRecord(
        experiment=experiment,
        params={"i": i},
        config_fingerprint="cafebabe00000000",
        metrics={"value": i * 10},
    )


class TestLocalDirBackend:
    def test_miss_and_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("bk", {"i": 0}, "cafebabe00000000") is None
        rec = _record(0)
        path = cache.put(rec)
        path.write_text("{not json")
        assert cache.get("bk", {"i": 0}, "cafebabe00000000",
                         rec.code_version) is None
        assert cache.misses == 2 and cache.hits == 0

    def test_clear_sweeps_orphan_tmp(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(_record(5))
        orphan = path.parent / "leftover.tmp"
        orphan.write_text("torn write")
        assert cache.clear() == 1
        assert not orphan.exists()
        assert len(cache) == 0
