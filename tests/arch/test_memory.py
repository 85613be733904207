import pytest

from repro.arch.memory import PagedMemory, PageFault, PageFlags

RW = PageFlags.USER | PageFlags.WRITABLE
RO = PageFlags.USER


class TestMapping:
    def test_unmapped_read_faults(self):
        with pytest.raises(PageFault):
            PagedMemory().read(0x1000, 1)

    def test_map_then_read_zeroed(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        assert mem.read(0x1000, 8) == b"\x00" * 8

    def test_map_spans_pages(self):
        mem = PagedMemory()
        mem.map_region(0x1FF0, 0x20, RW)  # crosses a page boundary
        mem.write(0x1FF0, b"A" * 0x20)
        assert mem.read(0x1FF0, 0x20) == b"A" * 0x20

    def test_map_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PagedMemory().map_region(0, 0, RW)

    def test_is_mapped(self):
        mem = PagedMemory()
        mem.map_region(0x2000, 1, RW)
        assert mem.is_mapped(0x2000)
        assert mem.is_mapped(0x2FFF)
        assert not mem.is_mapped(0x3000)


class TestPermissions:
    def test_readonly_write_faults(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        with pytest.raises(PageFault):
            mem.write(0x1000, b"x")

    def test_wp_disable_allows_supervisor_write(self):
        """CR0.WP cleared: ABOM's patching mode (§4.4)."""
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        mem.wp_enabled = False
        mem.write(0x1000, b"x")
        assert mem.read(0x1000, 1) == b"x"

    def test_wp_bypass_sets_dirty_bit(self):
        """§4.4: "the page table dirty bit will be set for read-only pages"."""
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        mem.wp_enabled = False
        mem.write(0x1000, b"x")
        assert mem.page_flags(0x1000) & PageFlags.DIRTY
        assert mem.dirty_pages() == [0x1000]

    def test_normal_write_does_not_set_dirty_tracking(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        mem.write(0x1000, b"x")
        assert not mem.page_flags(0x1000) & PageFlags.DIRTY

    def test_page_flags_unmapped_faults(self):
        with pytest.raises(PageFault):
            PagedMemory().page_flags(0x0)


class TestScalarAccess:
    def test_u64_roundtrip(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        mem.write_u64(0x1008, 0xFFFFFFFFFF600008)
        assert mem.read_u64(0x1008) == 0xFFFFFFFFFF600008

    def test_u32_roundtrip_truncates(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        mem.write_u32(0x1000, 0x1_2345_6789)
        assert mem.read_u32(0x1000) == 0x2345_6789

    def test_kernel_half_addresses(self):
        mem = PagedMemory()
        base = 0xFFFFFFFFFF600000
        mem.map_region(base, 4096, RW)
        mem.write_u64(base + 8, 123)
        assert mem.read_u64(base + 8) == 123


class TestGenerationsAndObservers:
    """Per-page generation counters + write observers (decode-cache
    invalidation protocol)."""

    def test_write_bumps_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = mem.page_generation(0x1000)
        mem.write(0x1000, b"x")
        assert mem.page_generation(0x1000) == before + 1

    def test_read_does_not_bump_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = mem.page_generation(0x1000)
        mem.read(0x1000, 64)
        mem.read_u64(0x1000)
        mem.read_u32(0x1040)
        assert mem.page_generation(0x1000) == before

    def test_scalar_writes_bump_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = mem.page_generation(0x1000)
        mem.write_u64(0x1000, 1)
        mem.write_u32(0x1010, 2)
        assert mem.page_generation(0x1000) == before + 2

    def test_compare_exchange_bumps_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = mem.page_generation(0x1000)
        assert mem.compare_exchange(0x1000, bytes(2), b"ab")
        assert mem.page_generation(0x1000) == before + 1

    def test_failed_compare_exchange_does_not_bump(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = mem.page_generation(0x1000)
        assert not mem.compare_exchange(0x1000, b"zz", b"ab")
        assert mem.page_generation(0x1000) == before

    def test_spanning_write_bumps_both_pages(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        first = mem.page_generation(0x1000)
        second = mem.page_generation(0x2000)
        mem.write(0x1FFC, b"ABCDEFGH")
        assert mem.page_generation(0x1000) == first + 1
        assert mem.page_generation(0x2000) == second + 1

    def test_reflag_bumps_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = mem.page_generation(0x1000)
        mem.set_page_flags(0x1000, RO)
        mem.map_region(0x1000, 4096, RW)
        assert mem.page_generation(0x1000) == before + 2

    def test_generation_unmapped_faults(self):
        with pytest.raises(PageFault):
            PagedMemory().page_generation(0x5000)
        assert PagedMemory().page_generation_index(5) == -1

    def test_observer_sees_every_store(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        events = []
        mem.add_write_observer(lambda addr, size: events.append((addr, size)))
        mem.write(0x1000, b"abc")
        mem.write_u64(0x1100, 7)
        mem.write_u32(0x1200, 7)
        assert (0x1000, 3) in events
        assert (0x1100, 8) in events
        assert (0x1200, 4) in events

    def test_observer_notified_per_page_chunk(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        events = []
        mem.add_write_observer(lambda addr, size: events.append((addr, size)))
        mem.write(0x1FFE, b"ABCD")  # 2 bytes in each page
        assert events == [(0x1FFE, 2), (0x2000, 2)]

    def test_observer_removal(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        events = []
        observer = lambda addr, size: events.append(addr)  # noqa: E731
        mem.add_write_observer(observer)
        mem.write(0x1000, b"x")
        mem.remove_write_observer(observer)
        mem.write(0x1001, b"y")
        assert events == [0x1000]


class TestCodePages:
    """The code bit gates code observers: stores to pages no CPU decoded
    from cost no callback; permission changes always notify."""

    def _watched(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        events = []
        mem.add_code_observer(lambda addr, size: events.append((addr, size)))
        return mem, events

    def test_stores_to_unmarked_pages_skip_code_observers(self):
        mem, events = self._watched()
        mem.write(0x1000, b"abc")
        mem.write_u64(0x1100, 7)
        mem.write_u32(0x1200, 7)
        assert mem.compare_exchange(0x1300, bytes(2), b"ab")
        assert events == []

    def test_stamped_page_notifies_every_store_kind(self):
        mem, events = self._watched()
        assert mem.stamp_code_page(0x1) == mem.page_generation(0x1000)
        mem.write(0x1000, b"abc")
        mem.write_u64(0x1100, 7)
        mem.write_u32(0x1200, 7)
        assert mem.compare_exchange(0x1300, bytes(2), b"ab")
        assert events == [(0x1000, 3), (0x1100, 8), (0x1200, 4), (0x1300, 2)]

    def test_spanning_write_notifies_only_the_code_chunk(self):
        mem, events = self._watched()
        mem.stamp_code_page(0x2)
        mem.write(0x1FFE, b"ABCD")
        assert events == [(0x2000, 2)]

    def test_reflag_always_notifies(self):
        mem, events = self._watched()
        mem.set_page_flags(0x1000, RO)
        mem.map_region(0x2000, 4096, RW)
        assert events == [(0x1000, 4096), (0x2000, 4096)]

    def test_write_observers_still_see_every_store(self):
        mem, code_events = self._watched()
        events = []
        mem.add_write_observer(lambda addr, size: events.append(addr))
        mem.write_u64(0x1100, 7)
        assert events == [0x1100] and code_events == []

    def test_stamp_of_unmapped_page(self):
        assert PagedMemory().stamp_code_page(5) == -1


class TestPlainIntFlags:
    def test_flags_are_stored_as_int_and_returned_as_pageflags(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        mem.set_page_flags(0x1000, RO)
        assert type(mem._pages[1].flags) is int
        flags = mem.page_flags(0x1000)
        assert isinstance(flags, PageFlags)
        assert flags == RO | PageFlags.PRESENT

    def test_restore_pages_keeps_flags_and_clears_code_bit(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO | PageFlags.EXECUTABLE)
        mem.stamp_code_page(0x1)
        mem.wp_enabled = False
        mem.write(0x1000, b"patched")
        mem.wp_enabled = True
        restored = PagedMemory()
        restored.restore_pages(
            {1: bytes(mem._pages[1].data)}, {1: int(mem.page_flags(0x1000))}
        )
        assert restored.page_flags(0x1000) == mem.page_flags(0x1000)
        assert restored.page_flags(0x1000) & PageFlags.DIRTY
        assert restored.read(0x1000, 7) == b"patched"
        assert not restored._pages[1].code
        assert restored.page_generation(0x1000) == 0


class TestScalarFastPathEdges:
    """The single-page fast paths must agree with the generic loop."""

    def test_u64_across_page_boundary(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        mem.write_u64(0x1FFC, 0x1122334455667788)
        assert mem.read_u64(0x1FFC) == 0x1122334455667788

    def test_u32_across_page_boundary(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        mem.write_u32(0x1FFE, 0xDEADBEEF)
        assert mem.read_u32(0x1FFE) == 0xDEADBEEF

    def test_u64_fast_path_respects_write_protect(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        with pytest.raises(PageFault):
            mem.write_u64(0x1000, 1)
        with pytest.raises(PageFault):
            mem.write_u32(0x1000, 1)

    def test_u64_fast_path_wp_bypass_sets_dirty(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        mem.wp_enabled = False
        mem.write_u64(0x1000, 42)
        mem.wp_enabled = True
        assert mem.read_u64(0x1000) == 42
        assert mem.page_flags(0x1000) & PageFlags.DIRTY

    def test_u64_unmapped_faults(self):
        with pytest.raises(PageFault):
            PagedMemory().read_u64(0x1000)
        with pytest.raises(PageFault):
            PagedMemory().write_u64(0x1000, 1)


class TestFetch:
    def test_fetch_requires_executable(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        with pytest.raises(PageFault) as excinfo:
            mem.fetch(0x1000, 15)
        assert "non-executable" in excinfo.value.reason

    def test_fetch_unmapped_faults(self):
        with pytest.raises(PageFault) as excinfo:
            PagedMemory().fetch(0x1000, 15)
        assert "unmapped" in excinfo.value.reason

    def test_fetch_truncates_at_non_executable_tail(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, PageFlags.USER | PageFlags.EXECUTABLE)
        mem.map_region(0x2000, 4096, RW)
        mem.wp_enabled = False
        mem.write(0x1FF0, b"\x90" * 16)
        mem.wp_enabled = True
        assert mem.fetch(0x1FF8, 15) == b"\x90" * 8

    def test_fetch_spans_executable_pages(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, PageFlags.USER | PageFlags.EXECUTABLE)
        mem.wp_enabled = False
        mem.write(0x1FFC, bytes(range(8)))
        mem.wp_enabled = True
        assert mem.fetch(0x1FFC, 8) == bytes(range(8))


class TestCompareExchange:
    def _mem(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        mem.write(0x1000, bytes(range(16)))
        return mem

    def test_success(self):
        mem = self._mem()
        ok = mem.compare_exchange(0x1000, bytes(range(7)), b"A" * 7)
        assert ok
        assert mem.read(0x1000, 7) == b"A" * 7

    def test_failure_leaves_memory_unchanged(self):
        mem = self._mem()
        ok = mem.compare_exchange(0x1000, b"wrong!!", b"A" * 7)
        assert not ok
        assert mem.read(0x1000, 7) == bytes(range(7))

    def test_more_than_8_bytes_rejected(self):
        """The paper's constraint: cmpxchg handles at most eight bytes."""
        mem = self._mem()
        with pytest.raises(ValueError):
            mem.compare_exchange(0x1000, bytes(9), bytes(9))

    def test_size_mismatch_rejected(self):
        mem = self._mem()
        with pytest.raises(ValueError):
            mem.compare_exchange(0x1000, bytes(4), bytes(5))

    def test_respects_write_protect(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        with pytest.raises(PageFault):
            mem.compare_exchange(0x1000, bytes(2), b"ab")
