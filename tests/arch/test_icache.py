"""Basic-block decode cache: hits, misses, invalidation, equivalence.

The cache must be invisible except for speed: ``icache=True`` and
``icache=False`` CPUs retire identical instruction streams, and any store
to cached text (the ABOM situation, §4.4) is observed before the next
execution of the written bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Assembler, CPU, PagedMemory, Reg
from repro.arch.cpu import HANDLERS, MAX_BLOCK_INSTRS, Trap, TrapKind
from repro.arch.encoding import ALL_MNEMONICS, BLOCK_TERMINATORS
from repro.arch.memory import PAGE_SIZE, PageFlags

BASE = 0x400000
STACK_BASE = 0x7F0000


def fresh_cpu(binary, icache=True, tracecache=True):
    mem = PagedMemory()
    binary.load(mem)
    mem.map_region(STACK_BASE, 0x10000, PageFlags.USER | PageFlags.WRITABLE)
    cpu = CPU(mem, icache=icache, tracecache=tracecache)
    cpu.regs.rip = binary.entry
    cpu.regs.rsp = STACK_BASE + 0x10000 - 256
    return cpu


def counting_loop(iterations=50):
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.xor(Reg.RAX, Reg.RAX)
    asm.label("loop")
    asm.inc(Reg.RAX)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


class TestDispatchTable:
    def test_handlers_cover_every_mnemonic(self):
        assert set(HANDLERS) == ALL_MNEMONICS

    def test_terminators_are_known_mnemonics(self):
        assert BLOCK_TERMINATORS <= ALL_MNEMONICS


class TestHitMissCounters:
    def test_loop_hits_dominate(self):
        # tracecache=False: a compiled trace would absorb the loop after
        # ~50 iterations and starve the icache hit counter.
        cpu = fresh_cpu(counting_loop(100), tracecache=False)
        cpu.run()
        stats = cpu.icache_stats
        assert cpu.regs.rax == 100
        # The loop body re-executes from the cache: a handful of decodes,
        # hundreds of cached instructions.
        assert stats.misses <= 6
        assert stats.hits > 250
        assert stats.hit_rate > 0.9

    def test_straight_line_code_misses_once_per_block(self):
        asm = Assembler(base=BASE)
        for _ in range(10):
            asm.nop()
        asm.hlt()
        cpu = fresh_cpu(asm.build())
        cpu.run()
        assert cpu.icache_stats.misses == 1
        assert cpu.icache_stats.hits == 10  # all but the first instruction

    def test_icache_off_keeps_counters_at_zero(self):
        cpu = fresh_cpu(counting_loop(20), icache=False)
        cpu.run()
        stats = cpu.icache_stats
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 0, 0)
        assert stats.hit_rate == 0.0
        assert cpu.regs.rax == 20

    def test_as_dict_shape(self):
        cpu = fresh_cpu(counting_loop(5))
        cpu.run()
        d = cpu.icache_stats.as_dict()
        assert set(d) == {"hits", "misses", "invalidations", "hit_rate"}

    def test_hit_rate_zero_fetches(self):
        """hit_rate must not divide by zero before any instruction runs."""
        cpu = fresh_cpu(counting_loop(5))
        stats = cpu.icache_stats
        assert (stats.hits, stats.misses) == (0, 0)
        assert stats.hit_rate == 0.0
        assert stats.as_dict()["hit_rate"] == 0.0

    def test_blocks_cap_at_page_boundary(self):
        """A block never spans a decode across its starting page's end
        into a second *block*: execution continues via a new fill."""
        asm = Assembler(base=BASE)
        asm.nop(PAGE_SIZE + 16)
        asm.hlt()
        cpu = fresh_cpu(asm.build())
        cpu.run()
        # At least one fill per page plus the MAX_BLOCK_INSTRS splits.
        expected_min = (PAGE_SIZE + 16) // MAX_BLOCK_INSTRS
        assert cpu.icache_stats.misses >= expected_min


class TestSelfModifyingCode:
    def test_write_to_cached_text_is_observed(self):
        """Rewrite a cached instruction; the next execution must see it."""
        asm = Assembler(base=BASE)
        asm.label("loop")
        asm.mov_imm32(Reg.RCX, 1)
        asm.hlt()
        binary = asm.build()
        cpu = fresh_cpu(binary)
        cpu.run()
        assert cpu.regs.read64(Reg.RCX) == 1
        # Patch the immediate in place (supervisor store to RO text).
        cpu.mem.wp_enabled = False
        cpu.mem.write(BASE + 1, (99).to_bytes(4, "little"))
        cpu.mem.wp_enabled = True
        assert cpu.icache_stats.invalidations >= 1
        cpu.halted = False
        cpu.regs.rip = BASE
        cpu.run()
        assert cpu.regs.read64(Reg.RCX) == 99

    def test_invalidation_only_hits_written_page(self):
        """A store to one text page leaves blocks on other pages cached."""
        asm = Assembler(base=BASE)
        asm.label("loop")
        asm.nop()
        asm.nop()
        asm.hlt()
        binary = asm.build()
        cpu = fresh_cpu(binary)
        cpu.run()
        misses_before = cpu.icache_stats.misses
        # Store to an unrelated page: no eviction.
        cpu.mem.write_u64(STACK_BASE + 64, 7)
        cpu.halted = False
        cpu.regs.rip = BASE
        cpu.run()
        assert cpu.icache_stats.invalidations == 0
        assert cpu.icache_stats.misses == misses_before

    def test_two_cpus_sharing_text_both_invalidate(self):
        """SMP: a store through one vCPU's memory evicts the other's
        cached decode of the same page (shared i-cache coherence)."""
        mem = PagedMemory()
        binary = counting_loop(10)
        binary.load(mem)
        mem.map_region(STACK_BASE, 0x10000, PageFlags.USER | PageFlags.WRITABLE)
        first = CPU(mem)
        second = CPU(mem)
        for cpu in (first, second):
            cpu.regs.rip = binary.entry
            cpu.regs.rsp = STACK_BASE + 0x8000
            cpu.run()
            cpu.halted = False
        assert first.icache_stats.hits > 0
        assert second.icache_stats.hits > 0
        mem.wp_enabled = False
        mem.write(binary.entry, b"\x90")
        mem.wp_enabled = True
        assert first.icache_stats.invalidations >= 1
        assert second.icache_stats.invalidations >= 1

    def test_flush_icache(self):
        cpu = fresh_cpu(counting_loop(10))
        cpu.run()
        assert cpu._blocks
        cpu.flush_icache()
        assert not cpu._blocks
        assert not cpu._page_blocks

    def test_flush_icache_mid_execution(self):
        """Flushing while a cursor is live must not corrupt execution:
        the run continues from a fresh decode and retires the same
        stream as an unflushed CPU."""
        reference = fresh_cpu(counting_loop(40))
        reference.run()
        cpu = fresh_cpu(counting_loop(40))
        for _ in range(25):  # stop mid-loop, cursor inside a cached block
            cpu.step()
        assert cpu._cursor is not None or cpu._blocks
        misses_before = cpu.icache_stats.misses
        cpu.flush_icache()
        assert cpu._cursor is None
        cpu.run()
        assert cpu.regs.snapshot() == reference.regs.snapshot()
        assert cpu.instructions_retired == reference.instructions_retired
        # The flush forced at least one re-decode of live text.
        assert cpu.icache_stats.misses > misses_before

    def test_flush_icache_drops_traces(self):
        cpu = fresh_cpu(counting_loop(200))
        cpu.run()
        tc = cpu._tracecache
        assert tc.traces  # the hot loop was trace-compiled
        assert cpu.trace_stats.code_bytes > 0
        cpu.flush_icache()
        assert not tc.traces
        assert cpu.trace_stats.code_bytes == 0


class TestCodePageInvalidation:
    """Stores reach a CPU's invalidation hook only on pages some CPU
    decoded code from (the page's code bit); nothing else changes."""

    def test_store_to_never_decoded_stack_page_skips_the_hook(self, monkeypatch):
        calls = []
        original = CPU._invalidate_written

        def spy(self, addr, size):
            calls.append(addr)
            original(self, addr, size)

        monkeypatch.setattr(CPU, "_invalidate_written", spy)
        asm = Assembler(base=BASE)
        asm.mov_imm32(Reg.RBX, 5)
        asm.label("loop")
        asm.push(Reg.RBX)
        asm.store_rsp64(8, Reg.RBX)
        asm.pop(Reg.RAX)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        cpu = fresh_cpu(asm.build(), tracecache=False)
        cpu.run()
        assert cpu.regs.rax == 1
        assert calls == []

    def test_page_decoded_after_earlier_stores_is_invalidated(self):
        mem = PagedMemory()
        mem.map_region(
            BASE, PAGE_SIZE, PageFlags.USER | PageFlags.WRITABLE | PageFlags.EXECUTABLE
        )
        asm = Assembler(base=BASE)
        asm.mov_imm32(Reg.RCX, 1)
        asm.hlt()
        mem.write(BASE, asm.build().code)  # plain data stores, no decode yet
        cpu = CPU(mem)
        cpu.regs.rip = BASE
        cpu.run()
        assert cpu.regs.read64(Reg.RCX) == 1 and BASE in cpu._blocks
        mem.write(BASE + 1, (99).to_bytes(4, "little"))
        assert BASE not in cpu._blocks  # evicted by the store itself
        assert cpu.icache_stats.invalidations == 1
        cpu.halted = False
        cpu.regs.rip = BASE
        cpu.run()
        assert cpu.regs.read64(Reg.RCX) == 99

    def test_store_by_one_cpu_evicts_block_decoded_by_another(self):
        mem = PagedMemory()
        victim = Assembler(base=BASE)
        victim.mov_imm32(Reg.RCX, 1)
        victim.hlt()
        victim.nop(2)
        victim.build().load(mem, writable_text=True)
        writer = Assembler(base=BASE + PAGE_SIZE)
        writer.push(Reg.RAX)
        writer.hlt()
        writer.build().load(mem)
        b = CPU(mem)
        b.regs.rip = BASE
        b.run()
        assert BASE in b._blocks
        a = CPU(mem)
        a.regs.rip = BASE + PAGE_SIZE
        a.regs.rsp = BASE + 8  # A's push lands on B's text
        a.regs.rax = int.from_bytes(b"\xb9\x63\x00\x00\x00\xf4\x90\x90", "little")
        a.run()
        assert BASE not in b._blocks
        assert b.icache_stats.invalidations == 1
        b.halted = False
        b.regs.rip = BASE
        b.run()
        assert b.regs.read64(Reg.RCX) == 0x63

    def test_nx_flip_kills_cached_block_and_trace(self):
        cpu = fresh_cpu(counting_loop(200))
        cpu.run()
        tc = cpu._tracecache
        (trace,) = tc.traces.values()
        assert cpu._blocks
        cpu.mem.set_page_flags(BASE, PageFlags.USER)  # EXECUTABLE dropped
        assert not cpu._blocks
        assert not tc.traces
        assert trace.live == [False]
        cpu.halted = False
        cpu.regs.rip = trace.head
        with pytest.raises(Trap) as info:
            cpu.run()
        assert info.value.kind is TrapKind.PAGE_FAULT

    def test_push_onto_code_page_inside_trace_bails_via_liveness_guard(self):
        """The stack grows down from the page above the text: the loop
        gets hot and compiled while it pushes onto the stack page, then
        the trace's inline push crosses onto the text page, evicts the
        trace and leaves through the liveness guard."""
        asm = Assembler(base=BASE)
        asm.mov_imm32(Reg.RBX, 200)
        asm.label("loop")
        asm.push(Reg.RBX)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        binary = asm.build()

        def run(icache, stack_slots):
            mem = PagedMemory()
            binary.load(mem, writable_text=True)
            mem.map_region(
                BASE + PAGE_SIZE, PAGE_SIZE, PageFlags.USER | PageFlags.WRITABLE
            )
            cpu = CPU(mem, icache=icache)
            cpu.regs.rip = binary.entry
            cpu.regs.rsp = BASE + PAGE_SIZE + stack_slots * 8
            cpu.run()
            return cpu

        crossing = run(icache=True, stack_slots=100)
        control = run(icache=True, stack_slots=300)  # never reaches the text
        plain = run(icache=False, stack_slots=100)
        assert _final_state(crossing) == _final_state(plain)
        stats = crossing.trace_stats
        assert control.trace_stats.invalidations == 0
        assert stats.invalidations >= 1
        # The one compiled run left through a guard with the loop still
        # going, right after a push: whole 3-instruction iterations plus
        # the push itself.
        assert stats.executions == stats.guard_exits == 1
        assert stats.instructions < control.trace_stats.instructions
        assert stats.instructions % 3 == 1


# ----------------------------------------------------------------------
# Property: icache on/off retire identical instruction streams
# ----------------------------------------------------------------------
_REGS = [Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.RDI]

_op = st.one_of(
    st.tuples(st.just("mov_imm32"), st.sampled_from(_REGS), st.integers(0, 2**31 - 1)),
    st.tuples(st.just("mov_imm64_low"), st.sampled_from(_REGS), st.integers(-(2**31), 2**31 - 1)),
    st.tuples(st.just("mov_reg"), st.sampled_from(_REGS), st.sampled_from(_REGS)),
    st.tuples(st.just("add"), st.sampled_from(_REGS), st.integers(-128, 127)),
    st.tuples(st.just("sub"), st.sampled_from(_REGS), st.integers(-128, 127)),
    st.tuples(st.just("cmp"), st.sampled_from(_REGS), st.integers(-128, 127)),
    st.tuples(st.just("inc"), st.sampled_from(_REGS)),
    st.tuples(st.just("dec"), st.sampled_from(_REGS)),
    st.tuples(st.just("xor"), st.sampled_from(_REGS), st.sampled_from(_REGS)),
    st.tuples(st.just("push"), st.sampled_from(_REGS)),
    st.tuples(st.just("pop"), st.sampled_from(_REGS)),
    st.tuples(st.just("nop")),
    # Forward skip over the next instruction: exercises block exits and
    # re-entry in the middle of decoded regions.
    st.tuples(st.just("skip_next")),
)


def _assemble(ops):
    asm = Assembler(base=BASE)
    pushes = 0
    skip_id = 0
    for op in ops:
        name = op[0]
        if name == "push":
            asm.push(op[1])
            pushes += 1
        elif name == "pop":
            if pushes == 0:
                continue  # keep the stack balanced
            asm.pop(op[1])
            pushes -= 1
        elif name == "skip_next":
            label = f"skip{skip_id}"
            skip_id += 1
            asm.jmp8(label)
            asm.nop(3)
            asm.label(label)
        elif name == "nop":
            asm.nop()
        else:
            getattr(asm, name)(*op[1:])
    for _ in range(pushes):
        asm.pop(Reg.RAX)
    asm.hlt()
    return asm.build()


class TestCachedUncachedEquivalence:
    @given(st.lists(_op, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_identical_streams_on_random_programs(self, ops):
        binary = _assemble(ops)
        cached = fresh_cpu(binary, icache=True)
        plain = fresh_cpu(binary, icache=False)
        # Lock-step: after every instruction both CPUs agree on the full
        # architectural state, so the retired streams are identical.
        while not (cached.halted or plain.halted):
            cached.step()
            plain.step()
            assert cached.regs.rip == plain.regs.rip
            assert cached.regs.snapshot() == plain.regs.snapshot()
            assert (cached.regs.zf, cached.regs.sf, cached.regs.cf) == (
                plain.regs.zf,
                plain.regs.sf,
                plain.regs.cf,
            )
        assert cached.halted and plain.halted
        assert cached.instructions_retired == plain.instructions_retired


def _final_state(cpu):
    return (
        cpu.regs.rip,
        cpu.regs.snapshot(),
        (cpu.regs.zf, cpu.regs.sf, cpu.regs.cf),
        cpu.instructions_retired,
    )


class TestTracedEquivalence:
    """Interpreter, icache, and trace-compiled execution are
    indistinguishable except for speed (run-to-halt comparison; traces
    retire whole superblocks per dispatch, so lock-step is meaningless)."""

    @given(st.lists(_op, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_three_modes_agree_on_random_programs(self, ops):
        binary = _assemble(ops)
        plain = fresh_cpu(binary, icache=False)
        cached = fresh_cpu(binary, icache=True, tracecache=False)
        traced = fresh_cpu(binary, icache=True, tracecache=True)
        # Straight-line programs only get hot across repeat runs; drop
        # the threshold so traces actually engage within a few passes.
        traced._tracecache.hot_threshold = 2
        for cpu in (plain, cached, traced):
            for _ in range(5):
                cpu.halted = False
                cpu.regs.rip = binary.entry
                cpu.run()
        assert _final_state(plain) == _final_state(cached) == _final_state(traced)

    def test_traces_engage_and_agree_on_hot_loop(self):
        binary = counting_loop(500)
        traced = fresh_cpu(binary)
        traced.run()
        plain = fresh_cpu(binary, icache=False)
        plain.run()
        assert _final_state(traced) == _final_state(plain)
        stats = traced.trace_stats
        assert stats.compiles >= 1
        assert stats.executions >= 1
        # The overwhelming majority of the loop ran inside the trace.
        assert stats.instructions > 1000
