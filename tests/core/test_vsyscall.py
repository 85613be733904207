import pytest

from repro.arch import Assembler, Reg
from repro.arch.cpu import CPU
from repro.arch.memory import PagedMemory, PageFault, PageFlags
from repro.core import CountingServices, XContainer, vsyscall
from repro.core.vsyscall import VsyscallPage


class TestLayout:
    """Slot addresses inferred from Figure 2 must hold exactly."""

    def test_read_slot_matches_figure2(self):
        # __read is syscall 0; Fig 2 patches it to call *0xffffffffff600008.
        assert vsyscall.slot_addr(0) == 0xFFFFFFFFFF600008

    def test_restore_rt_slot_matches_figure2(self):
        # __restore_rt is rt_sigreturn (15): call *0xffffffffff600080.
        assert vsyscall.slot_addr(15) == 0xFFFFFFFFFF600080

    def test_go_dynamic_slot_matches_figure2(self):
        # syscall.Syscall loads the number from 0x8(%rsp):
        # call *0xffffffffff600c08.
        assert vsyscall.dynamic_slot_addr(8) == 0xFFFFFFFFFF600C08

    def test_all_slots_fit_in_the_page(self):
        last_static = vsyscall.slot_addr(vsyscall.NUM_SYSCALLS - 1)
        assert last_static < vsyscall.VSYSCALL_BASE + 0x1000
        last_dynamic = vsyscall.dynamic_slot_addr(vsyscall.DYNAMIC_DISPS[-1])
        assert last_dynamic < vsyscall.VSYSCALL_BASE + 0x1000

    def test_slots_encodable_as_disp32(self):
        from repro.arch.encoding import enc_call_abs_ind

        for nr in (0, 1, 15, vsyscall.NUM_SYSCALLS - 1):
            enc_call_abs_ind(vsyscall.slot_addr(nr))  # must not raise

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            vsyscall.slot_addr(vsyscall.NUM_SYSCALLS)
        with pytest.raises(ValueError):
            vsyscall.dynamic_slot_addr(3)  # not a multiple of 8 in range


class TestInstall:
    def test_table_points_at_stubs(self):
        mem = PagedMemory()
        page = VsyscallPage(mem)
        page.install()
        assert mem.read_u64(vsyscall.slot_addr(0)) == vsyscall.stub_addr(0)
        assert mem.read_u64(vsyscall.slot_addr(39)) == vsyscall.stub_addr(39)
        assert (
            mem.read_u64(vsyscall.dynamic_slot_addr(8))
            == vsyscall.dynamic_stub_addr(8)
        )

    def test_page_is_readonly_to_user_code(self):
        mem = PagedMemory()
        VsyscallPage(mem).install()
        with pytest.raises(PageFault):
            mem.write_u64(vsyscall.slot_addr(0), 0xBAD)

    def test_page_is_global(self):
        """§4.3: the vsyscall/LibOS mappings carry the global bit."""
        mem = PagedMemory()
        VsyscallPage(mem).install()
        assert mem.page_flags(vsyscall.VSYSCALL_BASE) & PageFlags.GLOBAL

    def test_attach_before_install_rejected(self):
        mem = PagedMemory()
        page = VsyscallPage(mem)
        with pytest.raises(RuntimeError):
            page.attach(CPU(mem), lambda cpu, nr: None)


class TestStubs:
    def test_static_stub_passes_number(self):
        mem = PagedMemory()
        page = VsyscallPage(mem)
        page.install()
        cpu = CPU(mem)
        seen = []
        page.attach(cpu, lambda cpu, nr: seen.append(nr))
        cpu.native_stubs[vsyscall.stub_addr(39)](cpu)
        assert seen == [39]

    def test_dynamic_stub_reads_number_from_stack(self):
        mem = PagedMemory()
        page = VsyscallPage(mem)
        page.install()
        mem.map_region(0x7000, 4096, PageFlags.USER | PageFlags.WRITABLE)
        cpu = CPU(mem)
        cpu.regs.rsp = 0x7100
        # Original code stored the number at 8(%rsp) BEFORE the call pushed
        # a return address, so the stub must read it at 16(%rsp).
        mem.write_u64(0x7100 + 16, 202)
        seen = []
        page.attach(cpu, lambda cpu, nr: seen.append(nr))
        cpu.native_stubs[vsyscall.dynamic_stub_addr(8)](cpu)
        assert seen == [202]


def _per_slot_page():
    """The table as one ``write_u64`` per slot would fill it."""
    mem = PagedMemory()
    mem.map_region(
        vsyscall.VSYSCALL_BASE, 0x1000, PageFlags.USER | PageFlags.GLOBAL
    )
    mem.wp_enabled = False
    for nr in range(vsyscall.NUM_SYSCALLS):
        mem.write_u64(vsyscall.slot_addr(nr), vsyscall.stub_addr(nr))
    for disp in vsyscall.DYNAMIC_DISPS:
        mem.write_u64(
            vsyscall.dynamic_slot_addr(disp), vsyscall.dynamic_stub_addr(disp)
        )
    mem.wp_enabled = True
    return mem


class TestTableImage:
    def test_installed_page_equals_per_slot_stores(self):
        mem = PagedMemory()
        VsyscallPage(mem).install()
        expected = _per_slot_page()
        base = vsyscall.VSYSCALL_BASE
        assert mem.read(base, 0x1000) == expected.read(base, 0x1000)
        flags = mem.page_flags(base)
        assert flags == expected.page_flags(base) & ~PageFlags.DIRTY
        assert not flags & PageFlags.DIRTY
        assert flags & PageFlags.GLOBAL
        assert not flags & PageFlags.WRITABLE
        assert mem.wp_enabled
        with pytest.raises(PageFault):
            mem.write(base + 8, b"\x00")


def _call_every_stub(cpu, go_number):
    """Invoke each static stub, then each dynamic stub with
    ``go_number(disp)`` stored where the Go site keeps it."""
    top = cpu.regs.rsp
    for nr in range(vsyscall.NUM_SYSCALLS):
        cpu.regs.rsp = top
        cpu.native_stubs[vsyscall.stub_addr(nr)](cpu)
    for disp in vsyscall.DYNAMIC_DISPS:
        cpu.regs.rsp = top
        cpu.mem.write_u64(top + disp + 8, go_number(disp))
        cpu.native_stubs[vsyscall.dynamic_stub_addr(disp)](cpu)
    cpu.regs.rsp = top


def _static_and_go_program():
    """A glibc-shaped site (number 39) and a Go-shaped site (number 1007
    on the stack), each run three times: the first run of each traps and
    is patched, the rest call through the table."""
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 3)
    asm.label("loop")
    asm.syscall_site(39)
    asm.mov_imm64_low(Reg.RCX, 1007)
    asm.store_rsp64(8, Reg.RCX)
    asm.syscall_site(0, style="go_stack")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


class TestSharedStubs:
    """The stubs are shared by every CPU; each reaches its own LibOS."""

    def test_every_stub_reaches_its_own_libos(self):
        first = CountingServices()
        second = CountingServices()
        a = XContainer(first, name="a")
        b = XContainer(second, name="b")
        _call_every_stub(a.cpu, lambda disp: 500 + disp)
        _call_every_stub(b.cpu, lambda disp: 700 + disp)
        static = list(range(vsyscall.NUM_SYSCALLS))
        assert first.calls == static + [500 + d for d in vsyscall.DYNAMIC_DISPS]
        assert second.calls == static + [700 + d for d in vsyscall.DYNAMIC_DISPS]
        total = vsyscall.NUM_SYSCALLS + len(vsyscall.DYNAMIC_DISPS)
        assert a.libos.stats.lightweight_syscalls == total
        assert b.libos.stats.lightweight_syscalls == total

    def test_patched_static_and_go_sites_reach_their_own_libos(self):
        binary = _static_and_go_program()
        first = CountingServices()
        second = CountingServices()
        a = XContainer(first, name="a")
        b = XContainer(second, name="b")
        a.run(binary)
        assert (first.count(39), first.count(1007)) == (3, 3)
        assert second.calls == []
        b.run(binary)
        assert (second.count(39), second.count(1007)) == (3, 3)
        assert len(first.calls) == 6
        for xc in (a, b):
            assert xc.abom_stats.patches_7byte == 1
            assert xc.abom_stats.patches_go == 1
            assert xc.libos.stats.lightweight_syscalls == 4
            assert xc.libos.stats.forwarded_syscalls == 2

    def test_added_vcpu_dispatches_to_the_same_libos(self):
        services = CountingServices()
        other = CountingServices()
        xc = XContainer(services)
        XContainer(other)
        cpu = xc.add_vcpu()
        assert cpu is not xc.cpu
        cpu.native_stubs[vsyscall.stub_addr(39)](cpu)
        cpu.mem.write_u64(cpu.regs.rsp + 8 + 8, 202)
        cpu.native_stubs[vsyscall.dynamic_stub_addr(8)](cpu)
        assert services.calls == [39, 202]
        assert other.calls == []
        assert xc.libos.stats.lightweight_syscalls == 2


def _site_383_loop(style):
    """Three runs of a ``style`` site for syscall 383, with a different
    number parked where the Go stub of dynamic slot 0 would read it."""
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 3)
    asm.mov_imm64_low(Reg.RCX, 77)
    asm.store_rsp64(0, Reg.RCX)
    asm.label("loop")
    asm.syscall_site(383, style=style)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


class TestSlot383:
    """Static slot 383 is dynamic slot 0: ``base + 0xc00`` holds the Go
    stub, so a site for 383 must not be patched to call through it."""

    def test_slot_383_is_dynamic_slot_0(self):
        assert vsyscall.slot_addr(383) == vsyscall.dynamic_slot_addr(0)
        assert not vsyscall.has_static_slot(383)
        assert vsyscall.has_static_slot(382)

    @pytest.mark.parametrize("style", ["mov_eax", "mov_rax"])
    def test_383_site_is_forwarded_not_patched(self, style):
        services = CountingServices()
        xc = XContainer(services)
        xc.run(_site_383_loop(style))
        assert services.calls == [383, 383, 383]
        assert xc.abom_stats.total_patches == 0
        assert xc.libos.stats.forwarded_syscalls == 3

    def test_offline_patcher_skips_383(self):
        from repro.core.offline import OfflinePatcher

        asm = Assembler()
        site = asm.syscall_site(383, style="cancellable", symbol="w383")
        asm.hlt()
        binary = asm.build()
        for preserve in (False, True):
            xc = XContainer(CountingServices())
            xc.load(binary)
            patcher = OfflinePatcher(xc.memory)
            report = patcher.patch_sites(binary, [site], preserve)
            assert report.patched == [] and report.skipped == ["w383"]
            xc.run_loaded(binary.entry)
            assert xc.libos.services.calls == [383]
