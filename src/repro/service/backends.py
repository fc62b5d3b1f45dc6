"""Pluggable result-cache storage: the seam behind ``ResultCache``.

:class:`~repro.runtime.cache.ResultCache` used to *be* the on-disk
store.  With remote workers (:mod:`repro.service.remote`) the storage
engine has to be swappable -- a worker on another machine shares the
submitting process's cache through its job connection, not through a
filesystem -- so the storage guts are extracted here behind the three-
method :class:`CacheBackend` protocol:

* :class:`LocalDirBackend` -- the default, extracted verbatim from the
  pre-redesign ``ResultCache``: canonical-JSON record files fanned into
  256 two-hex-digit shards, atomic temp-file + rename writes;
* :class:`RemoteCacheBackend` -- the worker-side proxy: ``get``/``put``
  become framed requests on the job connection, served from the
  dispatcher's own backend.

Backends only move records; they never count.  The hit/miss
tally -- the ``stats()`` schema campaign summaries report -- lives on
the :class:`~repro.runtime.cache.ResultCache` facade, so swapping the
storage engine can never change a campaign summary or a golden fixture.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.runtime.record import RunRecord, make_cache_key
from repro.version import __version__

__all__ = [
    "CacheBackend",
    "LocalDirBackend",
    "RemoteCacheBackend",
    "as_result_cache",
]


class CacheBackend:
    """What a result-cache storage engine must provide.

    ``get`` returns the record for a key or ``None`` (corrupt or
    unreadable entries are misses, never errors); ``put`` stores one
    record; ``stats`` reports backend-level tallies (storage or
    transport counters -- *not* the facade's hit/miss schema).
    """

    def get(self, experiment: str, params: Mapping[str, Any],
            config_fp: str, code_version: str = __version__
            ) -> Optional[RunRecord]:
        raise NotImplementedError

    def put(self, record: RunRecord) -> Any:
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError


class LocalDirBackend(CacheBackend):
    """The default on-disk store (one JSON file per key, 256 shards).

    Writes are atomic (temp file + rename) so concurrent sweep workers
    never observe torn entries -- the property the service layer leans
    on: parallel workers write through from their own processes (and may
    be SIGKILLed mid-``put``) while the submitting process probes
    concurrently.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # ------------------------------------------------------------------ paths
    def path_for_key(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ----------------------------------------------------------------- lookup
    def get(self, experiment: str, params: Mapping[str, Any],
            config_fp: str, code_version: str = __version__
            ) -> Optional[RunRecord]:
        key = make_cache_key(experiment, params, config_fp, code_version)
        try:
            return RunRecord.from_json(self.path_for_key(key).read_text())
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, record: RunRecord) -> Path:
        """Store a record atomically; returns the entry path."""
        path = self.path_for_key(record.cache_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(record.to_json())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def stats(self) -> dict:
        return {"backend": "local-dir", "entries": len(self)}

    # ------------------------------------------------------------- housekeeping
    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps up orphaned ``*.tmp`` files -- the leftovers of
        :meth:`put` calls killed between ``mkstemp`` and ``rename``
        (e.g. a sweep worker dying mid-write).  Orphans do not count
        toward the return value; they were never entries.
        """
        n = 0
        if not self.root.is_dir():
            return n
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                entry.unlink()
                n += 1
            for orphan in sorted(shard.glob("*.tmp")):
                try:
                    orphan.unlink()
                except OSError:  # pragma: no cover - racing writer
                    pass
        return n

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalDirBackend {self.root} entries={len(self)}>"


class RemoteCacheBackend(CacheBackend):
    """Worker-side proxy: cache traffic rides the job connection.

    ``channel`` is anything with ``cache_get(experiment, params,
    config_fp, code_version)`` and ``cache_put(record)`` -- in
    production the worker's :class:`repro.service.remote._WorkerChannel`.
    The dispatcher answers from its own backend, so every machine in a
    job shares one content-addressed store without a shared filesystem.
    """

    def __init__(self, channel: Any):
        self.channel = channel
        self.gets = 0
        self.puts = 0

    def get(self, experiment: str, params: Mapping[str, Any],
            config_fp: str, code_version: str = __version__
            ) -> Optional[RunRecord]:
        self.gets += 1
        return self.channel.cache_get(experiment, dict(params), config_fp,
                                      code_version)

    def put(self, record: RunRecord) -> None:
        self.puts += 1
        self.channel.cache_put(record)

    def stats(self) -> dict:
        return {"backend": "remote", "gets": self.gets, "puts": self.puts}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteCacheBackend gets={self.gets} puts={self.puts}>"


def as_result_cache(cache: Any) -> Any:
    """Coerce a campaign ``cache`` argument to a counting facade.

    ``None`` and :class:`~repro.runtime.cache.ResultCache` pass through;
    a bare :class:`CacheBackend` is wrapped in a fresh facade (its own
    hit/miss tally); anything else is treated as a root path.
    """
    from repro.runtime.cache import ResultCache

    if cache is None or isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, CacheBackend):
        return ResultCache(backend=cache)
    return ResultCache(cache)
