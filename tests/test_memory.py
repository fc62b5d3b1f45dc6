"""Unit tests for the memory substrate (repro.memory)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import default_config
from repro.memory import (
    AddressSpace,
    Agent,
    MemoryOrder,
    MemoryTiming,
    RegistrationError,
    Scope,
    ScopedMemoryModel,
)
from repro.memory.model import StaleReadError


class TestAddressSpace:
    def test_alloc_and_views(self):
        space = AddressSpace("n0")
        buf = space.alloc(1024, name="send")
        v = buf.view(np.float32)
        assert v.shape == (256,)
        v[:] = 1.5
        assert buf.view(np.float32)[0] == 1.5

    def test_view_bounds_checked(self):
        buf = AddressSpace().alloc(64)
        with pytest.raises(IndexError):
            buf.view(np.float64, count=9)
        with pytest.raises(IndexError):
            buf.view(np.uint8, count=1, offset=64)

    def test_read_write_bytes_roundtrip(self):
        buf = AddressSpace().alloc(16)
        buf.write_bytes(4, b"abcd")
        assert buf.read_bytes(4, 4) == b"abcd"

    def test_oob_access_rejected(self):
        buf = AddressSpace().alloc(8)
        with pytest.raises(IndexError):
            buf.read_bytes(4, 8)
        with pytest.raises(IndexError):
            buf.write_bytes(-1, b"x")

    def test_addresses_unique_and_resolvable(self):
        space = AddressSpace()
        a, b = space.alloc(100), space.alloc(100)
        assert a.base != b.base
        buf, off = space.resolve(b.addr(37))
        assert buf is b and off == 37

    def test_resolve_unmapped_rejected(self):
        space = AddressSpace()
        space.alloc(10)
        with pytest.raises(IndexError):
            space.resolve(0xDEAD_0000)

    def test_resolve_straddling_guard_page_rejected(self):
        space = AddressSpace()
        a = space.alloc(100)
        space.alloc(100)
        with pytest.raises(IndexError):
            space.resolve(a.addr(90), nbytes=20)

    def test_zero_alloc_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc(0)

    def test_free_and_double_free(self):
        space = AddressSpace()
        buf = space.alloc(10)
        space.free(buf)
        with pytest.raises(ValueError):
            space.free(buf)


def _linear_resolve(space, addr, nbytes):
    """The reference: test every live buffer."""
    for buf in space.buffers():
        if buf.contains(addr, nbytes):
            return buf, addr - buf.base
    return None


class TestResolve:
    """``resolve`` bisects the sorted buffer bases; it must agree with a
    scan of every buffer."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        space = AddressSpace()
        live, freed = [], []
        for _ in range(60):
            if live and rng.random() < 0.35:
                buf = live.pop(int(rng.integers(len(live))))
                space.free(buf)
                freed.append(buf)
            else:
                live.append(space.alloc(int(rng.integers(1, 3 * 4096))))
            probes = []
            for buf in live + freed:
                end = buf.base + buf.nbytes
                probes += [
                    (buf.base, 1),                           # base
                    (buf.base + buf.nbytes // 2, 1),         # interior
                    (end - 1, 1),                            # last byte
                    (end, 1),                                # one past the end
                    (end, 0),
                    (end + 100, 1),                          # guard page
                    (buf.base, buf.nbytes),                  # whole buffer
                    (buf.base, buf.nbytes + 1),              # into the guard
                    (buf.base - 1, 2),                       # straddles the base
                ]
            probes += [(0, 1), (space._next, 1), (space._next + 8192, 4)]
            for addr, nbytes in probes:
                want = _linear_resolve(space, addr, nbytes)
                if want is None:
                    with pytest.raises(IndexError, match="unmapped"):
                        space.resolve(addr, nbytes)
                else:
                    got = space.resolve(addr, nbytes)
                    assert got[0] is want[0] and got[1] == want[1]

    def test_freed_buffer_unmapped(self):
        space = AddressSpace("n7")
        a, b, c = space.alloc(64), space.alloc(64), space.alloc(64)
        space.free(b)
        assert space.resolve(a.addr(63))[0] is a
        assert space.resolve(c.addr())[0] is c
        with pytest.raises(IndexError,
                           match=rf"address {b.base:#x} \(\+1\) unmapped in space 'n7'"):
            space.resolve(b.addr())


class TestDmaRegistration:
    def test_dma_requires_registration(self):
        space = AddressSpace()
        buf = space.alloc(64)
        with pytest.raises(RegistrationError):
            space.dma_read(buf.addr(), 64)
        space.register(buf)
        buf.write_bytes(0, b"\x07" * 64)
        assert space.dma_read(buf.addr(), 64) == b"\x07" * 64

    def test_dma_write(self):
        space = AddressSpace()
        buf = space.alloc(32)
        space.register(buf)
        space.dma_write(buf.addr(8), b"net!")
        assert buf.read_bytes(8, 4) == b"net!"

    def test_deregister_revokes_access(self):
        space = AddressSpace()
        buf = space.alloc(32)
        space.register(buf)
        space.deregister(buf)
        with pytest.raises(RegistrationError):
            space.dma_write(buf.addr(), b"x")

    def test_register_foreign_buffer_rejected(self):
        s1, s2 = AddressSpace("a"), AddressSpace("b")
        buf = s1.alloc(8)
        with pytest.raises(RegistrationError):
            s2.register(buf)

    def test_register_freed_buffer_rejected(self):
        space = AddressSpace()
        buf = space.alloc(8)
        space.free(buf)
        with pytest.raises(RegistrationError):
            space.register(buf)


class TestScopedMemoryModel:
    """Paper Section 4.2.6: buffer must be released at system scope before
    the NIC reads it; GPU must acquire to see NIC writes."""

    def _setup(self):
        space = AddressSpace()
        return ScopedMemoryModel(), space.alloc(256, name="sendbuf")

    def test_nic_read_after_gpu_release_is_clean(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        mm.release(20, Agent.GPU, Scope.SYSTEM)
        assert mm.record_read(30, Agent.NIC, buf) is None
        assert mm.hazard_count() == 0

    def test_nic_read_without_release_is_hazard(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        hazard = mm.record_read(30, Agent.NIC, buf)
        assert hazard is not None
        assert hazard.reader is Agent.NIC and hazard.writer is Agent.GPU

    def test_device_scope_release_does_not_publish(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        mm.release(20, Agent.GPU, Scope.DEVICE)
        assert mm.record_read(30, Agent.NIC, buf) is not None

    def test_system_scope_release_store_publishes(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, scope=Scope.SYSTEM, order=MemoryOrder.RELEASE)
        assert mm.record_read(30, Agent.NIC, buf) is None

    def test_gpu_needs_acquire_to_see_nic_write(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.NIC, buf)
        hazard = mm.record_read(20, Agent.GPU, buf)  # relaxed read
        assert hazard is not None
        mm.acquire(30, Agent.GPU, Scope.SYSTEM)
        assert mm.record_read(40, Agent.GPU, buf) is None

    def test_gpu_acquire_load_observes(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.NIC, buf)
        assert mm.record_read(
            20, Agent.GPU, buf, scope=Scope.SYSTEM, order=MemoryOrder.ACQUIRE
        ) is None

    def test_cpu_writes_coherent_with_nic(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.CPU, buf)
        assert mm.record_read(20, Agent.NIC, buf) is None

    def test_rewrite_after_release_is_hazard_again(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        mm.release(20, Agent.GPU, Scope.SYSTEM)
        mm.record_write(30, Agent.GPU, buf)  # dirty again
        assert mm.record_read(40, Agent.NIC, buf) is not None

    def test_strict_mode_raises(self):
        mm = ScopedMemoryModel(strict=True)
        buf = AddressSpace().alloc(8)
        mm.record_write(10, Agent.GPU, buf)
        with pytest.raises(StaleReadError):
            mm.record_read(20, Agent.NIC, buf)

    def test_own_writes_always_visible(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf)
        assert mm.record_read(11, Agent.GPU, buf) is None

    def test_targeted_release_only_publishes_named_buffers(self):
        mm = ScopedMemoryModel()
        space = AddressSpace()
        a, b = space.alloc(8, name="a"), space.alloc(8, name="b")
        mm.record_write(10, Agent.GPU, a)
        mm.record_write(10, Agent.GPU, b)
        mm.release(20, Agent.GPU, Scope.SYSTEM, buffers=[a])
        assert mm.record_read(30, Agent.NIC, a) is None
        assert mm.record_read(30, Agent.NIC, b) is not None

    def test_clear(self):
        mm, buf = self._setup()
        mm.record_write(1, Agent.GPU, buf)
        mm.record_read(2, Agent.NIC, buf)
        assert mm.hazard_count() == 1
        mm.clear()
        assert mm.hazard_count() == 0


class TestIntervalGranularity:
    """Pipelined protocols write slice s+1 while the NIC reads slice s of
    the same buffer; disjoint intervals must not flag hazards."""

    def _setup(self):
        space = AddressSpace()
        return ScopedMemoryModel(), space.alloc(1024, name="vec")

    def test_disjoint_intervals_no_hazard(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=512, hi=1024)
        assert mm.record_read(20, Agent.NIC, buf, lo=0, hi=512) is None

    def test_overlapping_intervals_hazard(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=256, hi=768)
        assert mm.record_read(20, Agent.NIC, buf, lo=500, hi=600) is not None

    def test_release_clears_all_intervals(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=0, hi=256)
        mm.record_write(11, Agent.GPU, buf, lo=256, hi=512)
        mm.release(20, Agent.GPU, Scope.SYSTEM)
        assert mm.record_read(30, Agent.NIC, buf) is None

    def test_write_after_release_dirty_only_new_interval(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=0, hi=256)
        mm.release(20, Agent.GPU, Scope.SYSTEM)
        mm.record_write(30, Agent.GPU, buf, lo=256, hi=512)
        assert mm.record_read(40, Agent.NIC, buf, lo=0, hi=256) is None
        assert mm.record_read(40, Agent.NIC, buf, lo=256, hi=512) is not None

    def test_whole_buffer_read_sees_any_dirty_interval(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=1000, hi=1024)
        assert mm.record_read(20, Agent.NIC, buf) is not None

    def test_empty_interval_rejected(self):
        mm, buf = self._setup()
        with pytest.raises(ValueError, match="empty write interval"):
            mm.record_write(10, Agent.GPU, buf, lo=10, hi=10)

    def test_adjacent_intervals_do_not_overlap(self):
        mm, buf = self._setup()
        mm.record_write(10, Agent.GPU, buf, lo=0, hi=512)
        assert mm.record_read(20, Agent.NIC, buf, lo=512, hi=1024) is None


# A small domain, so that random sequences often repeat a read across
# the write, release and acquire that should (or should not) change it.
_AGENTS = st.sampled_from(list(Agent))
_SCOPES = st.sampled_from([Scope.DEVICE, Scope.SYSTEM])
_ORDERS = st.sampled_from([MemoryOrder.RELAXED, MemoryOrder.ACQUIRE,
                           MemoryOrder.RELEASE])
_SPANS_ALL = [None, (0, 16), (16, 32)]
_SPANS = st.sampled_from(_SPANS_ALL)
_SUBSETS = st.sampled_from([None, (0,), (1,)])
_BUFS = st.integers(0, 1)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), _AGENTS, _SCOPES, _ORDERS, _SPANS, _BUFS),
    st.tuples(st.just("release"), _AGENTS, _SCOPES, _SUBSETS),
    st.tuples(st.just("acquire"), _AGENTS, _SCOPES, _SUBSETS),
    st.tuples(st.just("read"), _AGENTS, _SCOPES, _ORDERS, _SPANS, _BUFS,
              st.integers(1, 3)),
), min_size=2, max_size=30)


class TestCleanReadMemo:
    """The clean-read memo in ScopedMemoryModel.record_read is exact: it
    logs the same hazards as a model whose memo is cleared before every
    read."""

    @staticmethod
    def _apply(mm, bufs, ops, forget):
        results = []

        def read(time, agent, buf, scope, order, span):
            if forget:
                for state in mm._state.values():
                    state.clean.clear()
            lo, hi = span or (None, None)
            results.append(mm.record_read(time, agent, buf, scope, order,
                                          lo=lo, hi=hi))

        for time, (kind, agent, scope, *rest) in enumerate(ops):
            # Relaxed reads (no acquire side effect) of every span by
            # every agent, so each op meets reads memoized before it.
            for reader in Agent:
                for buf in bufs:
                    for span in _SPANS_ALL:
                        read(time, reader, buf, Scope.DEVICE,
                             MemoryOrder.RELAXED, span)
            if kind == "write":
                order, span, b = rest
                lo, hi = span or (None, None)
                mm.record_write(time, agent, bufs[b], scope, order, lo=lo, hi=hi)
            elif kind in ("release", "acquire"):
                (subset,) = rest
                chosen = None if subset is None else [bufs[b] for b in subset]
                getattr(mm, kind)(time, agent, scope, chosen)
            else:
                order, span, b, repeats = rest
                for _ in range(repeats):
                    read(time, agent, bufs[b], scope, order, span)
        return results

    @given(_OPS)
    def test_memo_logs_the_same_hazards(self, ops):
        space = AddressSpace()
        bufs = [space.alloc(32, name="a"), space.alloc(32, name="b")]
        memo, reference = ScopedMemoryModel(), ScopedMemoryModel()
        assert (self._apply(memo, bufs, ops, forget=False)
                == self._apply(reference, bufs, ops, forget=True))
        assert memo.hazards == reference.hazards

    def test_repeated_clean_read_skips_the_check(self, monkeypatch):
        mm = ScopedMemoryModel()
        buf = AddressSpace().alloc(64, name="flag")
        mm.record_write(1, Agent.NIC, buf)
        checks = []
        check = mm._check
        monkeypatch.setattr(mm, "_check",
                            lambda *a: checks.append(a[0]) or check(*a))
        for t in (2, 3, 4):
            assert mm.record_read(t, Agent.GPU, buf, Scope.SYSTEM,
                                  MemoryOrder.ACQUIRE) is None
        assert checks == [2]
        mm.record_write(5, Agent.NIC, buf)
        assert mm.record_read(6, Agent.GPU, buf, Scope.SYSTEM,
                              MemoryOrder.ACQUIRE) is None
        assert checks == [2, 6]

    def test_back_to_back_hazardous_reads_log_twice(self):
        mm = ScopedMemoryModel()
        buf = AddressSpace().alloc(64, name="sendbuf")
        mm.record_write(1, Agent.GPU, buf)
        assert mm.record_read(2, Agent.NIC, buf) is not None
        assert mm.record_read(3, Agent.NIC, buf) is not None
        assert [h.time for h in mm.hazards] == [2, 3]


class TestMemoryTiming:
    def test_small_sets_hit_l1(self):
        cfg = default_config()
        t = MemoryTiming.for_cpu(cfg.cpu, cfg.memory)
        assert t.breakdown(1024)[0] == "L1"

    def test_levels_monotone(self):
        cfg = default_config()
        t = MemoryTiming.for_cpu(cfg.cpu, cfg.memory)
        sizes = [1 << k for k in range(10, 27)]
        times = [t.stream_ns(s) for s in sizes]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_large_sets_go_to_dram(self):
        cfg = default_config()
        t = MemoryTiming.for_cpu(cfg.cpu, cfg.memory)
        assert t.breakdown(64 * 1024 * 1024)[0] == "DRAM"

    def test_gpu_timing_builds(self):
        cfg = default_config()
        t = MemoryTiming.for_gpu(cfg.gpu, cfg.memory)
        assert t.stream_ns(0) == 0
        assert t.stream_ns(1 << 20) > 0

    def test_negative_rejected(self):
        cfg = default_config()
        t = MemoryTiming.for_cpu(cfg.cpu, cfg.memory)
        with pytest.raises(ValueError):
            t.stream_ns(-1)
