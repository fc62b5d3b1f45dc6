"""ResultCache resilience: torn, truncated or garbage entries must read
as a miss -- never raise -- and the next store replaces them cleanly."""

import json

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.record import RunRecord


def _record(seed=1):
    return RunRecord(experiment="robust", params={"seed": seed},
                     config_fingerprint="cafebabe00000000",
                     metrics={"value": seed * 10}, hazards=0)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _entry_path(cache, record):
    return cache.path_for_key(record.cache_key())


def _get(cache, record):
    return cache.get(record.experiment, record.params,
                     record.config_fingerprint)


CORRUPTIONS = {
    "empty": b"",
    "truncated-json": None,  # filled in below from a real entry
    "binary-garbage": b"\x00\xff\x13\x37" * 64,
    "wrong-schema": json.dumps({"not": "a RunRecord"}).encode(),
    "valid-json-wrong-types": json.dumps(
        {"experiment": 1, "params": [], "config_fingerprint": None,
         "metrics": 2, "hazards": "x", "spans": 0, "code_version": 1}
    ).encode(),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupt_entry_reads_as_miss(cache, kind):
    record = _record()
    path = cache.put(record)
    payload = CORRUPTIONS[kind]
    if payload is None:  # torn write: first half of the real entry
        payload = path.read_bytes()[: len(path.read_bytes()) // 2]
    path.write_bytes(payload)

    assert _get(cache, record) is None
    assert cache.misses == 1 and cache.hits == 0
    assert path.exists(), "a miss must not delete the entry"


def test_corrupt_entry_is_replaced_by_next_put(cache):
    record = _record()
    path = cache.put(record)
    path.write_bytes(b"{torn")
    assert _get(cache, record) is None

    cache.put(record)
    fresh = _get(cache, record)
    assert fresh is not None
    assert fresh.metrics == record.metrics


def test_entry_is_sharded_by_key(cache):
    """One JSON file per key, under the shard named by its first two hex
    digits."""
    record = _record(seed=3)
    path = cache.put(record)
    key = record.cache_key()
    assert path == cache.root / key[:2] / f"{key}.json"
    assert path.read_text() == record.to_json()
    assert cache.get(record.experiment, record.params,
                     record.config_fingerprint, record.code_version) == record


def test_stats_reports_hits_and_misses(cache):
    record = _record(seed=7)
    cache.put(record)
    assert _get(cache, record) == record
    assert _get(cache, _record(seed=8)) is None
    assert cache.stats() == {"hits": 1, "misses": 1}


def test_missing_entry_is_a_plain_miss(cache):
    assert _get(cache, _record(seed=99)) is None
    assert cache.misses == 1


def test_unreadable_entry_is_a_miss_not_an_error(cache):
    record = _record()
    path = cache.put(record)
    path.chmod(0o000)
    try:
        got = _get(cache, record)
    finally:
        path.chmod(0o644)
    # Root ignores file modes on some containers; accept either a clean
    # miss or a successful read -- what is forbidden is an exception.
    assert got is None or got.metrics == record.metrics


def test_healthy_roundtrip_still_hits(cache):
    record = _record(seed=3)
    cache.put(record)
    got = _get(cache, record)
    assert got is not None and got.metrics == {"value": 30}
    assert cache.hits == 1 and cache.misses == 0


def test_clear_removes_orphaned_tmp_files(cache):
    """A put() killed between mkstemp and rename leaves a *.tmp orphan in
    the shard; clear() must sweep it (it is not counted as an entry)."""
    record = _record()
    path = cache.put(record)
    orphan = path.parent / "deadbeef.tmp"
    orphan.write_text("half-written record")

    assert cache.clear() == 1  # orphans are not entries
    assert not orphan.exists()
    assert not path.exists()
    assert len(cache) == 0


def test_clear_sweeps_tmp_even_with_no_entries(cache):
    record = _record()
    path = cache.put(record)
    path.unlink()  # shard dir remains, holding only the orphan
    orphan = path.parent / "0123abcd.tmp"
    orphan.write_text("{")

    assert cache.clear() == 0
    assert not orphan.exists()
