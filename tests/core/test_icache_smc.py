"""Decode cache vs. ABOM: self-modifying code must never be missed.

ABOM rewrites live text (§4.4) while the interpreter holds decoded basic
blocks for exactly those bytes.  Every test here arranges for the patched
site to be *resident in the decode cache* when the patch lands, then
asserts the very next execution observes the new bytes — for the 7-byte
patch, the Go pattern, and both phases of the 9-byte rewrite, including
the pinned phase-1-only intermediate state and SMP shared text.
"""

import pytest

from repro.arch import Assembler, Reg
from repro.core import CountingServices, XContainer
from repro.core.abom import ABOM


def container(results=None, icache=True):
    return XContainer(CountingServices(results=results or {}), icache=icache)


def icache(xc, counter):
    """``arch_icache_<counter>_total`` summed over the container's vCPUs."""
    return xc.telemetry().value(f"arch_icache_{counter}_total")


def loop_program(style, nr, iterations, setup=None, base=0x400000):
    asm = Assembler(base=base)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.label("loop")
    if setup:
        setup(asm)
    site = asm.syscall_site(nr, style=style)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build(), site


def go_setup(nr):
    def setup(asm):
        asm.mov_imm64_low(Reg.RCX, nr)
        asm.store_rsp64(8, Reg.RCX)

    return setup


class TestPatchOfCachedSite:
    """The first trap patches a site whose block is already cached (the
    loop executed it once); iteration 2 must run the patched bytes."""

    def test_7byte_patch_evicts_cached_block(self):
        xc = container()
        binary, _ = loop_program("mov_eax", 39, 10)
        xc.run(binary)
        assert xc.libos_stats.forwarded_syscalls == 1
        assert xc.libos_stats.lightweight_syscalls == 9
        assert icache(xc, "invalidations") >= 1
        assert icache(xc, "hits") > 0  # the loop really ran from the cache

    def test_go_pattern_patch_evicts_cached_block(self):
        xc = container()
        binary, _ = loop_program("go_stack", 7, 8, setup=go_setup(7))
        xc.run(binary)
        assert xc.libos.services.calls == [7] * 8
        assert xc.libos_stats.forwarded_syscalls == 1
        assert xc.libos_stats.lightweight_syscalls == 7
        assert icache(xc, "invalidations") >= 1

    def test_9byte_patch_evicts_cached_block(self):
        """Both phases land back to back; iteration 2 must enter the
        call, not a stale decode of mov+syscall."""
        xc = container()
        binary, _ = loop_program("mov_rax", 15, 12)
        xc.run(binary)
        assert xc.abom_stats.patches_9byte == 1
        assert xc.libos_stats.forwarded_syscalls == 1
        assert xc.libos_stats.lightweight_syscalls == 11
        assert icache(xc, "invalidations") >= 1

    def test_cached_and_uncached_agree_on_syscall_streams(self):
        for style, setup in [
            ("mov_eax", None),
            ("mov_rax", None),
            ("go_stack", go_setup(5)),
        ]:
            nr = 5 if style == "go_stack" else 39
            streams = []
            for icache in (True, False):
                xc = container(icache=icache)
                binary, _ = loop_program(style, nr, 6, setup=setup)
                xc.run(binary)
                streams.append(xc.libos.services.calls)
            assert streams[0] == streams[1], style


class TestNineBytePhases:
    def test_phase1_only_intermediate_state_with_cache(self):
        """Pin the phase-1 state (call written, syscall still live) by
        failing the second cmpxchg: the cache must observe the phase-1
        bytes and the return-address skip keeps semantics intact."""
        xc = container(results={15: 3})
        binary, site = loop_program("mov_rax", 15, 6)
        xc.load(binary)
        abom = xc.xkernel.abom

        original_cmpxchg = xc.memory.compare_exchange
        calls = {"n": 0}

        def failing_second(addr, expected, new):
            calls["n"] += 1
            if calls["n"] == 2:
                return False
            return original_cmpxchg(addr, expected, new)

        # Warm the cache on the pristine bytes: the block decoded at the
        # entry covers the whole mov+syscall site, but stop stepping
        # before the syscall itself traps (that would patch normally).
        xc.cpu.regs.rip = binary.entry
        for _ in range(2):
            xc.cpu.step()
        assert xc.cpu.icache_stats.misses >= 1

        xc.memory.compare_exchange = failing_second
        assert abom.try_patch(site.syscall_addr)
        xc.memory.compare_exchange = original_cmpxchg
        assert xc.memory.read(site.syscall_addr, 2) == b"\x0f\x05"
        assert xc.cpu.icache_stats.invalidations >= 1

        result = xc.run_loaded(binary.entry)
        assert result.exit_rax == 3
        assert xc.libos.services.count(15) == 6

    def test_phase2_jmp_back_from_cached_tail(self):
        """After phase 2, a direct jump to the old syscall address runs
        ``jmp -9`` into the call — even though the pre-patch block that
        covered that address was cached."""
        xc = container()
        binary, site = loop_program("mov_rax", 20, 4)
        xc.run(binary)  # fully patched, both phases
        assert xc.memory.read(site.syscall_addr, 2) == b"\xeb\xf7"
        before = xc.libos.services.count(20)
        xc.cpu.halted = False
        xc.cpu.regs.rip = site.syscall_addr  # land on the jmp -9 tail
        for _ in range(4):
            xc.cpu.step()
        assert xc.libos.services.count(20) == before + 1
        assert xc.libos_stats.forwarded_syscalls == 1  # still only one


class TestExternalPatchMidRun:
    @pytest.mark.parametrize("patch_after", [0, 1, 2, 3])
    def test_patch_lands_between_iterations_of_cached_loop(self, patch_after):
        """A foreign patcher (another vCPU's ABOM) rewrites a site in the
        middle of a stepped run: the remaining iterations must execute
        the patched bytes from a fresh decode."""
        loops = 5
        binary, site = loop_program("mov_rax", 20, loops)
        reference = XContainer(CountingServices(), abom_enabled=False)
        reference.run(binary)

        xc = XContainer(CountingServices(), abom_enabled=False)
        xc.load(binary)
        xc.cpu.regs.rip = binary.entry
        while (
            not xc.cpu.halted
            and len(xc.libos.services.calls) < min(patch_after, loops)
        ):
            xc.cpu.step()
        patcher = ABOM(xc.memory)
        assert patcher.try_patch(site.syscall_addr)
        if patch_after > 0:
            # The loop block was executing from the cache when the patch
            # evicted it mid-flight.
            assert xc.cpu.icache_stats.invalidations >= 1
        while not xc.cpu.halted:
            xc.cpu.step()
        assert xc.libos.services.calls == reference.libos.services.calls


class TestSmpSharedText:
    def test_two_vcpus_with_caches_race_on_patched_text(self):
        """Both vCPUs execute the SAME text with their own decode caches;
        one of them triggers the patch, BOTH caches must drop the stale
        block (the software analogue of cross-core i-cache coherence)."""
        xc = container()
        second = xc.add_vcpu()
        asm = Assembler(base=0x400000)
        asm.mov_imm32(Reg.RBX, 25)
        asm.label("loop")
        asm.syscall_site(39, style="mov_eax")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        shared = asm.build()
        xc.load(shared)
        # Warm the second vCPU's cache on the pristine text (one step,
        # before the site traps) so the patch has a stale block to evict;
        # round-robin order would otherwise let it decode post-patch.
        second.regs.rip = shared.entry
        second.step()
        xc.run_concurrent(
            [(xc.cpu, shared.entry), (second, shared.entry)], quantum=3
        )
        assert xc.libos.services.count(39) == 50
        assert xc.abom_stats.total_patches == 1
        # Each vCPU ran mostly from its cache AND observed the patch.
        assert xc.cpu.icache_stats.hits > 0
        assert second.icache_stats.hits > 0
        assert xc.cpu.icache_stats.invalidations >= 1
        assert second.icache_stats.invalidations >= 1
        # One forwarded trap; everything else took the patched fast path.
        assert xc.libos_stats.forwarded_syscalls == 1
        assert xc.libos_stats.lightweight_syscalls == 49
