"""ResultCache under a parallel sweep's puts.

With ``jobs > 1`` the submitting process puts each record a worker
returns (atomic temp-file + ``os.replace``) while any other reader may
``get`` the same keys concurrently.  A reader must only ever see a miss
or a complete record, never a torn one, and a torn entry left by a
killed writer must read as a miss that the next sweep silently repairs.
"""

import threading

from repro.collectives import AllreduceExperiment
from repro.runtime import ResultCache, Sweep


def _sweep() -> Sweep:
    return Sweep(AllreduceExperiment(),
                 grid={"strategy": ["cpu", "hdn", "gds", "gputn"],
                       "n_nodes": [2]},
                 base={"nbytes": 16 * 1024})


def _keys(sweep):
    ex = sweep.experiment
    return [(ex.name, ex.resolve_params(p)) for p in sweep.sweep_points()]


class TestWriteThroughRaces:
    def test_reader_races_worker_puts(self, tmp_path):
        """A reader polling during a parallel sweep sees miss-or-complete."""
        sweep = _sweep()
        cache = ResultCache(tmp_path)
        reader = ResultCache(tmp_path)  # separate counters, same files
        fingerprint = {}
        partials = []
        stop = threading.Event()

        def poll() -> None:
            while not stop.is_set():
                for name, params in _keys(sweep):
                    hit = reader.get(name, params, fingerprint["fp"])
                    if hit is not None:
                        partials.append(hit.to_json())

        records = Sweep(sweep.experiment, points=[{"strategy": "cpu",
                                                   "n_nodes": 2,
                                                   "nbytes": 16 * 1024}]
                        ).run(cache=cache)
        fingerprint["fp"] = records[0].config_fingerprint
        poller = threading.Thread(target=poll)
        poller.start()
        try:
            fresh = sweep.run(jobs=4, cache=cache)
        finally:
            stop.set()
            poller.join()

        # Anything the racing reader observed was a complete record.
        final = {r.to_json() for r in fresh}
        assert set(partials) <= final
        # And the cache ends fully populated: a rerun is all hits.
        rerun_cache = ResultCache(tmp_path)
        again = sweep.run(jobs=4, cache=rerun_cache)
        assert rerun_cache.hits == 4 and rerun_cache.misses == 0
        assert [r.to_json() for r in again] == [r.to_json() for r in fresh]

    def test_worker_side_puts_populate_every_point(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh = _sweep().run(jobs=4, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        for record in fresh:
            hit = cache.get(record.experiment, record.params,
                            record.config_fingerprint)
            assert hit is not None and hit.to_json() == record.to_json()

    def test_torn_entry_from_dead_worker_reads_as_miss(self, tmp_path):
        """Half-written entry (writer killed pre-rename) -> miss -> repair."""
        cache = ResultCache(tmp_path)
        fresh = _sweep().run(jobs=2, cache=cache)
        victim = fresh[2]
        path = cache.path_for_key(victim.cache_key())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        probe = ResultCache(tmp_path)
        assert probe.get(victim.experiment, victim.params,
                         victim.config_fingerprint) is None
        assert probe.misses == 1

        # The next parallel sweep treats it as a hole, re-simulates it
        # byte-identically, and its put repairs the entry.
        repair_cache = ResultCache(tmp_path)
        again = _sweep().run(jobs=2, cache=repair_cache)
        assert repair_cache.hits == 3 and repair_cache.misses == 1
        assert [r.to_json() for r in again] == [r.to_json() for r in fresh]
        assert path.read_bytes() == blob
