"""On-disk result cache.

Keys are ``(code version, experiment name, config hash, sweep point)`` --
exactly the inputs that determine a simulated result -- so re-rendering a
figure after an unrelated edit is free while a config or parameter change
misses cleanly.  The config hash is the fingerprint of the point's
*effective* config, after ``Experiment.configure()``:
``Experiment.resolve_point`` computes it both for the record a run puts
and for the key a lookup probes.  Fingerprints are memoised per frozen
config section (:func:`~repro.runtime.record.config_fingerprint`), so a
probe pays for the sections a point replaced, not the whole config
tree.  Records are stored as canonical JSON, one file per key, fanned
into 256 two-hex-digit shards, with atomic writes (temp file + rename)
so a concurrent reader never observes a torn entry.

Campaigns run through :mod:`repro.service` read and write the cache only
in the submitting process: it probes before dispatch and puts each
executed record as it journals it, so workers -- local or remote --
never touch it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.runtime.record import RunRecord, make_cache_key
from repro.version import __version__

__all__ = ["ResultCache", "default_cache_dir"]

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default directory name, created under the current working directory.
CACHE_DIR_NAME = ".repro-cache"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path.cwd() / CACHE_DIR_NAME


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + ``os.replace``, so a
    reader sees the old file or the new one, never a torn one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Content-addressed store of :class:`RunRecord` entries under
    ``root`` (default: :func:`default_cache_dir`), with a hit/miss tally."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ paths
    def path_for_key(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ----------------------------------------------------------------- lookup
    def get(self, experiment: str, params: Mapping[str, Any],
            config_fp: str, code_version: str = __version__
            ) -> Optional[RunRecord]:
        """Return the cached record for a sweep point, or None on miss.

        Corrupt or unreadable entries count as misses (and are left for
        the next :meth:`put` to overwrite).
        """
        key = make_cache_key(experiment, params, config_fp, code_version)
        try:
            record = RunRecord.from_json(self.path_for_key(key).read_text())
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, record: RunRecord) -> Path:
        """Store a record atomically; returns the entry path."""
        path = self.path_for_key(record.cache_key())
        atomic_write(path, record.to_json())
        return path

    def stats(self) -> dict:
        """This object's lookup tally, as reported in sweep/campaign
        summaries and ``--json`` outputs: ``{"hits", "misses"}``."""
        return {"hits": self.hits, "misses": self.misses}

    # ------------------------------------------------------------- housekeeping
    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps up orphaned ``*.tmp`` files -- the leftovers of
        :meth:`put` calls killed between ``mkstemp`` and ``rename``.
        Orphans do not count toward the return value; they were never
        entries.
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
        return (f"<ResultCache {self.root} "
                f"hits={self.hits} misses={self.misses}>")
