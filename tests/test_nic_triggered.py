"""Tests for triggered-operation semantics (repro.nic.triggered).

Includes the property-based test of the paper's central hardware
invariant: an operation fires exactly once, when and only when its
counter reaches the threshold, under *any* interleaving of CPU
registration and GPU trigger writes (Section 3.2 relaxed synchronization).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic import LinkedListLookup, NetworkOp, TriggerList
from repro.nic.triggered import TriggerEntry
from repro.sim import Probes


def make_list(fired, probes=None):
    return TriggerList(LinkedListLookup(), on_fire=fired.append, node="n0",
                       probes=probes or Probes())


def op(n=64):
    return NetworkOp(kind="put", local_addr=0x1000, nbytes=n, target="n1",
                     remote_addr=0x2000)


class TestNetworkOp:
    def test_valid(self):
        assert op().kind == "put"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            NetworkOp(kind="teleport", local_addr=0, nbytes=1, target="x")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkOp(kind="put", local_addr=0, nbytes=-1, target="x")


class TestRegisterThenTrigger:
    def test_fires_at_threshold(self):
        fired = []
        tl = make_list(fired)
        tl.register(op(), tag=1, threshold=3)
        tl.trigger(1)
        tl.trigger(1)
        assert fired == []
        tl.trigger(1)
        assert len(fired) == 1 and fired[0].tag == 1

    def test_threshold_one_fires_immediately_on_trigger(self):
        fired = []
        tl = make_list(fired)
        tl.register(op(), tag=9, threshold=1)
        tl.trigger(9)
        assert len(fired) == 1

    def test_extra_triggers_do_not_refire(self):
        fired = []
        tl = make_list(fired)
        tl.register(op(), tag=1, threshold=1)
        for _ in range(5):
            tl.trigger(1)
        assert len(fired) == 1

    def test_independent_tags(self):
        fired = []
        tl = make_list(fired)
        tl.register(op(), tag=1, threshold=1)
        tl.register(op(), tag=2, threshold=2)
        tl.trigger(2)
        assert fired == []
        tl.trigger(1)
        assert [e.tag for e in fired] == [1]
        tl.trigger(2)
        assert [e.tag for e in fired] == [1, 2]

    def test_zero_threshold_rejected(self):
        tl = make_list([])
        with pytest.raises(ValueError):
            tl.register(op(), tag=1, threshold=0)

    def test_duplicate_pending_registration_rejected(self):
        tl = make_list([])
        tl.register(op(), tag=1, threshold=2)
        with pytest.raises(ValueError, match="already registered"):
            tl.register(op(), tag=1, threshold=2)

    def test_fired_tag_requires_free_before_reuse(self):
        fired = []
        tl = make_list(fired)
        entry = tl.register(op(), tag=1, threshold=1)
        tl.trigger(1)
        with pytest.raises(ValueError, match="already fired"):
            tl.register(op(), tag=1, threshold=1)
        tl.free(entry)
        tl.register(op(), tag=1, threshold=1)
        tl.trigger(1)
        assert len(fired) == 2


class TestRelaxedSynchronization:
    """Section 3.2: GPU triggers before CPU registration."""

    def test_early_trigger_allocates_placeholder(self):
        fired = []
        tl = make_list(fired)
        entry = tl.trigger(42)
        assert entry.is_placeholder and entry.counter == 1
        assert fired == []
        assert tl.stats["placeholders"] == 1

    def test_registration_adopts_placeholder_counter(self):
        fired = []
        tl = make_list(fired)
        tl.trigger(7)
        tl.trigger(7)
        tl.register(op(), tag=7, threshold=3)
        assert fired == []
        tl.trigger(7)
        assert len(fired) == 1

    def test_late_registration_fires_immediately_when_met(self):
        fired = []
        tl = make_list(fired)
        for _ in range(3):
            tl.trigger(5)
        tl.register(op(), tag=5, threshold=3)
        assert len(fired) == 1

    def test_late_registration_overshoot_fires_once(self):
        fired = []
        tl = make_list(fired)
        for _ in range(10):
            tl.trigger(5)
        tl.register(op(), tag=5, threshold=3)
        assert len(fired) == 1

    def test_placeholder_never_fires_without_registration(self):
        fired = []
        tl = make_list(fired)
        for _ in range(100):
            tl.trigger(1)
        assert fired == []


class TestEntryProperties:
    def test_ready_logic(self):
        e = TriggerEntry(tag=1)
        assert e.is_placeholder and not e.ready
        e.op, e.threshold = op(), 2
        assert e.armed and not e.ready
        e.counter = 2
        assert e.ready
        e.fired = True
        assert not e.ready


@settings(max_examples=200, deadline=None)
@given(
    threshold=st.integers(min_value=1, max_value=8),
    n_triggers=st.integers(min_value=0, max_value=12),
    register_position=st.integers(min_value=0, max_value=12),
)
def test_property_fires_exactly_once_iff_threshold_met(
    threshold, n_triggers, register_position
):
    """For any interleaving (registration inserted at any point in the
    trigger-write stream), the op fires exactly once iff the total trigger
    count reaches the threshold, and never before."""
    fired = []
    tl = make_list(fired)
    register_position = min(register_position, n_triggers)
    seen = 0
    registered = False

    def check():
        expect = 1 if registered and seen >= threshold else 0
        assert len(fired) == expect

    for i in range(n_triggers):
        if i == register_position:
            tl.register(op(), tag=1, threshold=threshold)
            registered = True
            check()
        tl.trigger(1)
        seen += 1
        check()
    if not registered:
        tl.register(op(), tag=1, threshold=threshold)
        registered = True
        check()
    # Exhaustive final condition.
    assert len(fired) == (1 if seen >= threshold else 0)


@settings(max_examples=100, deadline=None)
@given(
    tags=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
    thresholds=st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=6),
        min_size=6, max_size=6,
    ),
)
def test_property_multi_tag_independence(tags, thresholds):
    """Counters never leak between tags: each tag fires iff its own count
    reaches its own threshold."""
    fired = []
    tl = make_list(fired)
    for tag, threshold in thresholds.items():
        tl.register(op(), tag=tag, threshold=threshold)
    for tag in tags:
        tl.trigger(tag)
    counts = {t: tags.count(t) for t in thresholds}
    expected = sorted(t for t, thr in thresholds.items() if counts[t] >= thr)
    assert sorted(e.tag for e in fired) == expected


class TestFreeLifecycle:
    """free() consumes fired entries only, and keeps fired_log bounded."""

    def test_free_fired_entry_releases_slot(self):
        fired = []
        tl = make_list(fired)
        entry = tl.register(op(), tag=1, threshold=1)
        tl.trigger(1)
        tl.free(entry)
        assert tl.entry(1) is None
        assert tl.stats["freed"] == 1

    def test_free_armed_entry_raises(self):
        tl = make_list([])
        entry = tl.register(op(), tag=1, threshold=2)
        tl.trigger(1)  # counter below threshold: still pending
        with pytest.raises(ValueError, match="has not fired"):
            tl.free(entry)
        # The pending operation must survive the rejected free.
        assert tl.entry(1) is entry
        tl.trigger(1)
        assert tl.entry(1).fired

    def test_free_placeholder_raises(self):
        tl = make_list([])
        placeholder = tl.trigger(99)
        with pytest.raises(ValueError, match="placeholder"):
            tl.free(placeholder)
        assert tl.entry(99) is placeholder

    def test_double_free_raises_via_lookup(self):
        fired = []
        tl = make_list(fired)
        entry = tl.register(op(), tag=1, threshold=1)
        tl.trigger(1)
        tl.free(entry)
        with pytest.raises(ValueError):
            tl.free(entry)

    def test_fired_log_purges_freed_entries(self):
        """A register/fire/free loop (persistent-kernel steady state) must
        not grow fired_log unboundedly."""
        fired = []
        tl = make_list(fired)
        for i in range(1000):
            entry = tl.register(op(), tag=1, threshold=1)
            tl.trigger(1)
            tl.free(entry)
            assert len(tl.fired_log) <= 2
        assert tl.stats["fired"] == tl.stats["freed"] == 1000

    def test_fired_log_keeps_unfreed_entries(self):
        fired = []
        tl = make_list(fired)
        keep = tl.register(op(), tag=1, threshold=1)
        tl.trigger(1)
        for i in range(50):
            entry = tl.register(op(), tag=2, threshold=1)
            tl.trigger(2)
            tl.free(entry)
        assert keep in tl.fired_log and not keep.freed
        assert all(not e.freed for e in tl.fired_log)

    def test_free_notifies_observers(self):
        seen = []
        probes = Probes()
        tl = make_list([], probes)
        probes.trigger.append(
            lambda node, kind, entry: seen.append((node, kind, entry.tag)))
        entry = tl.register(op(), tag=3, threshold=1)
        tl.trigger(3)
        tl.free(entry)
        assert seen == [("n0", "register", 3), ("n0", "trigger", 3),
                        ("n0", "fire", 3), ("n0", "free", 3)]


@settings(max_examples=100, deadline=None)
@given(
    rounds=st.integers(min_value=1, max_value=20),
    threshold=st.integers(min_value=1, max_value=4),
    early_triggers=st.integers(min_value=0, max_value=4),
)
def test_property_register_fire_free_roundtrip(rounds, threshold,
                                               early_triggers):
    """A tag can be re-registered after free for any number of rounds;
    freeing before the fire always raises and drops nothing."""
    fired = []
    tl = make_list(fired)
    for r in range(rounds):
        for _ in range(min(early_triggers, threshold - 1)):
            tl.trigger(1)  # placeholder path (relaxed synchronization)
        entry = tl.register(op(), tag=1, threshold=threshold)
        while not entry.fired:
            with pytest.raises(ValueError):
                tl.free(entry)
            tl.trigger(1)
        tl.free(entry)
        assert tl.entry(1) is None
        assert len(fired) == r + 1
        assert len(tl.fired_log) <= 2
    assert tl.stats["fired"] == tl.stats["freed"] == rounds
