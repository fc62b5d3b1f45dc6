"""On-disk result cache (a facade over pluggable storage backends).

Keys are ``(code version, experiment name, config hash, sweep point)`` --
exactly the inputs that determine a simulated result -- so re-rendering a
figure after an unrelated edit is free while a config or parameter change
misses cleanly.  The config hash is the fingerprint of the point's
*effective* config, after ``Experiment.configure()``:
``Experiment.resolve_point`` computes it both for the record a run puts
and for the key a lookup probes.  Fingerprints are memoised per frozen
config section (:func:`~repro.runtime.record.config_fingerprint`), so a
probe pays for the sections a point replaced, not the whole config
tree.  Storage lives behind the
:class:`~repro.service.backends.CacheBackend` protocol: the default
:class:`~repro.service.backends.LocalDirBackend` stores records as
canonical JSON, one file per key, fanned into 256 two-hex-digit shards,
with atomic writes (temp file + rename) so concurrent sweep workers never
observe torn entries; remote workers swap in a
:class:`~repro.service.backends.RemoteCacheBackend` that proxies the same
``get``/``put`` traffic through their job connection.

:class:`ResultCache` itself owns only the hit/miss tally, so the
``stats()`` schema campaign summaries report is identical whichever
backend moves the bytes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.runtime.record import RunRecord
from repro.version import __version__

__all__ = ["ResultCache", "default_cache_dir"]

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default directory name, created under the current working directory.
CACHE_DIR_NAME = ".repro-cache"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path.cwd() / CACHE_DIR_NAME


class ResultCache:
    """Content-addressed store of :class:`RunRecord` entries.

    ``ResultCache(root=...)`` keeps its historical meaning -- a local
    sharded directory -- while ``ResultCache(backend=...)`` mounts any
    :class:`~repro.service.backends.CacheBackend`.  The facade counts
    hits and misses; the backend only moves records.
    """

    def __init__(self, root: Union[str, Path, None] = None, *,
                 backend: Any = None):
        # Imported lazily: repro.service is a client of the runtime, so
        # an eager import here would be circular.
        from repro.service.backends import LocalDirBackend

        if backend is not None and root is not None:
            raise ValueError("pass root= or backend=, not both")
        if backend is None:
            backend = LocalDirBackend(root if root is not None
                                      else default_cache_dir())
        self.backend = backend
        #: Storage directory of a local-dir backend (``None`` for
        #: backends with no filesystem root, e.g. remote proxies).
        self.root: Optional[Path] = getattr(backend, "root", None)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ paths
    def path_for_key(self, key: str) -> Path:
        return self.backend.path_for_key(key)

    # ----------------------------------------------------------------- lookup
    def get(self, experiment: str, params: Mapping[str, Any],
            config_fp: str, code_version: str = __version__
            ) -> Optional[RunRecord]:
        """Return the cached record for a sweep point, or None on miss.

        Corrupt or unreadable entries count as misses (and are left for
        the next :meth:`put` to overwrite).
        """
        record = self.backend.get(experiment, params, config_fp, code_version)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, record: RunRecord) -> Any:
        """Store a record; returns the backend's handle (entry path for
        the local-dir backend)."""
        return self.backend.put(record)

    def stats(self) -> dict:
        """This object's lookup tally, as reported in sweep/campaign
        summaries and ``--json`` outputs: ``{"hits", "misses"}``."""
        return {"hits": self.hits, "misses": self.misses}

    # ------------------------------------------------------------- housekeeping
    def clear(self) -> int:
        """Delete every entry; returns the number removed (local-dir
        backends; see :meth:`LocalDirBackend.clear`)."""
        return self.backend.clear()

    def __len__(self) -> int:
        return len(self.backend)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.root if self.root is not None else self.backend
        return (f"<ResultCache {where} "
                f"hits={self.hits} misses={self.misses}>")
