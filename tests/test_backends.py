"""Tests for the pluggable cache-backend seam behind ResultCache."""

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.record import RunRecord
from repro.service.backends import (CacheBackend, LocalDirBackend,
                                    RemoteCacheBackend, as_result_cache)


def _record(i=0, experiment="bk"):
    return RunRecord(
        experiment=experiment,
        params={"i": i},
        config_fingerprint="cafebabe00000000",
        metrics={"value": i * 10},
    )


class TestLocalDirBackend:
    def test_round_trip_and_layout(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        rec = _record(3)
        path = backend.put(rec)
        key = rec.cache_key()
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert path.is_file()
        got = backend.get("bk", {"i": 3}, "cafebabe00000000",
                          rec.code_version)
        assert got == rec

    def test_miss_and_corrupt_entry_is_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        assert backend.get("bk", {"i": 0}, "cafebabe00000000") is None
        rec = _record(0)
        path = backend.put(rec)
        path.write_text("{not json")
        assert backend.get("bk", {"i": 0}, "cafebabe00000000",
                           rec.code_version) is None

    def test_stats_schema(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        assert backend.stats() == {"backend": "local-dir", "entries": 0}
        backend.put(_record(1))
        assert backend.stats() == {"backend": "local-dir", "entries": 1}

    def test_clear_sweeps_orphan_tmp(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        path = backend.put(_record(5))
        orphan = path.parent / "leftover.tmp"
        orphan.write_text("torn write")
        assert backend.clear() == 1
        assert not orphan.exists()
        assert len(backend) == 0


class TestResultCacheFacade:
    def test_default_backend_is_local_dir(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert isinstance(cache.backend, LocalDirBackend)
        assert cache.root == tmp_path

    def test_root_and_backend_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            ResultCache(tmp_path, backend=LocalDirBackend(tmp_path))

    def test_stats_schema_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path)
        rec = _record(7)
        cache.put(rec)
        assert cache.get("bk", {"i": 7}, "cafebabe00000000",
                         rec.code_version) == rec
        assert cache.get("bk", {"i": 8}, "cafebabe00000000") is None
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_counters_live_on_facade_not_backend(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        a = ResultCache(backend=backend)
        b = ResultCache(backend=backend)
        rec = _record(2)
        a.put(rec)
        a.get("bk", {"i": 2}, "cafebabe00000000", rec.code_version)
        assert a.stats()["hits"] == 1
        assert b.stats() == {"hits": 0, "misses": 0}

    def test_facade_byte_identity_across_seam(self, tmp_path):
        # The refactor must not move a single byte: the file a facade
        # writes equals the file the extracted backend writes.
        rec = _record(9)
        via_facade = ResultCache(tmp_path / "a")
        via_backend = LocalDirBackend(tmp_path / "b")
        pa = via_facade.put(rec)
        pb = via_backend.put(rec)
        assert pa.relative_to(tmp_path / "a") == pb.relative_to(tmp_path / "b")
        assert pa.read_bytes() == pb.read_bytes()


class _FakeChannel:
    def __init__(self):
        self.store = {}
        self.calls = []

    def cache_get(self, experiment, params, config_fp, code_version):
        self.calls.append("get")
        from repro.runtime.record import make_cache_key
        key = make_cache_key(experiment, params, config_fp, code_version)
        return self.store.get(key)

    def cache_put(self, record):
        self.calls.append("put")
        self.store[record.cache_key()] = record


class TestRemoteCacheBackend:
    def test_proxies_and_counts(self):
        channel = _FakeChannel()
        backend = RemoteCacheBackend(channel)
        rec = _record(4)
        assert backend.get("bk", {"i": 4}, "cafebabe00000000",
                           rec.code_version) is None
        backend.put(rec)
        assert backend.get("bk", {"i": 4}, "cafebabe00000000",
                           rec.code_version) == rec
        assert backend.stats() == {"backend": "remote", "gets": 2, "puts": 1}
        assert channel.calls == ["get", "put", "get"]

    def test_facade_over_remote_backend(self):
        cache = ResultCache(backend=RemoteCacheBackend(_FakeChannel()))
        assert cache.root is None
        rec = _record(6)
        cache.put(rec)
        assert cache.get("bk", {"i": 6}, "cafebabe00000000",
                         rec.code_version) == rec
        assert cache.stats() == {"hits": 1, "misses": 0}


class TestAsResultCache:
    def test_none_passes_through(self):
        assert as_result_cache(None) is None

    def test_facade_passes_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert as_result_cache(cache) is cache

    def test_backend_is_wrapped(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        cache = as_result_cache(backend)
        assert isinstance(cache, ResultCache)
        assert cache.backend is backend

    def test_path_becomes_local_dir(self, tmp_path):
        cache = as_result_cache(tmp_path)
        assert isinstance(cache.backend, LocalDirBackend)
        assert cache.root == tmp_path


def test_base_protocol_is_abstract():
    backend = CacheBackend()
    with pytest.raises(NotImplementedError):
        backend.get("x", {}, "00")
    with pytest.raises(NotImplementedError):
        backend.put(_record())
    with pytest.raises(NotImplementedError):
        backend.stats()
