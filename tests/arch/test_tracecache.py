"""Trace cache: compilation, guards, fuel, invalidation, toggles.

The trace cache must be invisible except for speed: compiled superblocks
retire the same architectural state, counts, and faults as the
interpreter, and every guard failure re-enters the interpreter at the
architecturally exact RIP.  See ``docs/interpreter_performance.md``.
"""

import pytest

from repro.arch import Assembler, CPU, PagedMemory, Reg
from repro.arch.memory import PageFault, PageFlags
from repro.arch.tracecache import HOT_THRESHOLD, MIN_LINEAR_OPS

BASE = 0x400000
STACK_BASE = 0x7F0000


def fresh_cpu(binary, icache=True, tracecache=True, stack_pages=0x10000):
    mem = PagedMemory()
    binary.load(mem)
    mem.map_region(STACK_BASE, stack_pages, PageFlags.USER | PageFlags.WRITABLE)
    cpu = CPU(mem, icache=icache, tracecache=tracecache)
    cpu.regs.rip = binary.entry
    cpu.regs.rsp = STACK_BASE + stack_pages - 256
    return cpu


def counting_loop(iterations):
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.xor(Reg.RAX, Reg.RAX)
    asm.label("loop")
    asm.inc(Reg.RAX)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


def call_loop(iterations):
    """A hot loop whose body calls a subroutine: exercises the
    call/ret-guard steps of the recorder."""
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.xor(Reg.RAX, Reg.RAX)
    asm.jmp("loop")
    asm.label("sub")
    asm.inc(Reg.RAX)
    asm.inc(Reg.RAX)
    asm.ret()
    asm.label("loop")
    asm.call("sub")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


def final_state(cpu):
    return (
        cpu.regs.rip,
        cpu.regs.snapshot(),
        (cpu.regs.zf, cpu.regs.sf, cpu.regs.cf),
        cpu.instructions_retired,
    )


class TestToggles:
    def test_disabled_by_constructor_flag(self):
        cpu = fresh_cpu(counting_loop(500), tracecache=False)
        cpu.run()
        assert cpu._tracecache is None
        assert cpu.trace_stats.compiles == 0
        assert cpu.regs.rax == 500

    def test_requires_icache(self):
        """The profiler lives in the icache hit path, so icache=False
        implies no trace cache even when requested."""
        cpu = fresh_cpu(counting_loop(100), icache=False, tracecache=True)
        cpu.run()
        assert cpu._tracecache is None
        assert cpu.regs.rax == 100

    def test_enabled_by_default(self):
        cpu = fresh_cpu(counting_loop(500))
        cpu.run()
        assert cpu.trace_stats.compiles >= 1
        assert cpu.trace_stats.executions >= 1
        assert cpu.regs.rax == 500

    def test_stats_always_present_and_integral(self):
        cpu = fresh_cpu(counting_loop(500))
        cpu.run()
        d = cpu.trace_stats.as_dict()
        assert set(d) == {
            "compiles",
            "aborts",
            "executions",
            "instructions",
            "guard_exits",
            "invalidations",
            "code_bytes",
        }
        assert all(isinstance(v, int) for v in d.values())


class TestCompilation:
    def test_loop_compiles_once_and_dominates(self):
        cpu = fresh_cpu(counting_loop(1000))
        cpu.run()
        stats = cpu.trace_stats
        assert stats.compiles == 1
        # Warmup is HOT_THRESHOLD loop iterations; everything after runs
        # inside the trace.
        assert stats.instructions >= (1000 - HOT_THRESHOLD - 1) * 3
        assert stats.code_bytes > 0

    def test_call_ret_chain_is_stitched(self):
        traced = fresh_cpu(call_loop(400))
        traced.run()
        plain = fresh_cpu(call_loop(400), tracecache=False)
        plain.run()
        assert final_state(traced) == final_state(plain)
        assert traced.regs.rax == 800
        stats = traced.trace_stats
        assert stats.compiles >= 1
        # The stitched superblock spans call + body + ret per iteration.
        assert stats.instructions > 1000

    def test_short_linear_chain_aborts_once(self):
        asm = Assembler(base=BASE)
        asm.inc(Reg.RAX)
        asm.inc(Reg.RAX)
        asm.hlt()
        binary = asm.build()
        assert 3 < MIN_LINEAR_OPS
        cpu = fresh_cpu(binary)
        tc = cpu._tracecache
        tc.hot_threshold = 2
        for _ in range(6):
            cpu.halted = False
            cpu.regs.rip = binary.entry
            cpu.run()
        assert cpu.trace_stats.compiles == 0
        # Rejected once, blacklisted after: no per-entry recompile storms.
        assert cpu.trace_stats.aborts == 1
        assert tc.failed

    def test_code_memo_amortizes_identical_programs(self):
        from repro.arch import tracecache as m

        binary = counting_loop(300)
        first = fresh_cpu(binary)
        first.run()
        memo_size = len(m._CODE_MEMO)
        second = fresh_cpu(binary)
        second.run()
        # Same text, same generated source: compile() ran once.
        assert len(m._CODE_MEMO) == memo_size
        assert second.trace_stats.compiles == 1

    def test_source_generated_once_per_recorded_plan(self, monkeypatch):
        from repro.arch import tracecache as m

        monkeypatch.setattr(m, "_CODE_MEMO", {})
        calls = []
        generate = m._generate

        def counting(*args):
            calls.append(args[0])
            return generate(*args)

        monkeypatch.setattr(m, "_generate", counting)
        binary = counting_loop(300)
        runs = [fresh_cpu(binary) for _ in range(3)]
        for cpu in runs:
            cpu.run()
        assert [cpu.trace_stats.compiles for cpu in runs] == [1, 1, 1]
        assert len(calls) == 1
        assert len({cpu.regs.rax for cpu in runs}) == 1

    def test_plans_differing_only_in_charge_compile_apart(self):
        """The same text traced on a CPU without a clock and on one that
        charges per instruction: each trace charges as its CPU does."""
        from repro.perf.clock import SimClock

        binary = counting_loop(300)
        bare = fresh_cpu(binary)
        bare.run()
        charged = []
        for ns in (2.5, 4.0):
            cpu = fresh_cpu(binary)
            cpu.clock = SimClock()
            cpu.instruction_ns = ns
            cpu.run()
            assert cpu.trace_stats.compiles == 1
            assert cpu.clock.now_ns == cpu.instructions_retired * ns
            charged.append(cpu.instructions_retired)
        assert charged[0] == charged[1] == bare.instructions_retired


class TestGuardsAndFuel:
    def test_loop_exit_lands_on_exact_rip(self):
        """The branch guard exits at the architectural successor: the
        instruction after the loop retires exactly once."""
        traced = fresh_cpu(counting_loop(300))
        traced.run()
        plain = fresh_cpu(counting_loop(300), tracecache=False)
        plain.run()
        assert final_state(traced) == final_state(plain)
        assert traced.trace_stats.guard_exits >= 1

    def test_budget_exhaustion_matches_interpreter(self):
        """run(max_instructions=N) retires exactly N in both modes: the
        trace's fuel accounting never overshoots the budget."""
        budget = 1000
        traced = fresh_cpu(counting_loop(5000))
        with pytest.raises(RuntimeError, match="budget"):
            traced.run(max_instructions=budget)
        plain = fresh_cpu(counting_loop(5000), tracecache=False)
        with pytest.raises(RuntimeError, match="budget"):
            plain.run(max_instructions=budget)
        assert traced.instructions_retired == budget
        assert plain.instructions_retired == budget
        assert final_state(traced) == final_state(plain)

    def test_zero_fuel_entry_returns_without_progress(self):
        cpu = fresh_cpu(counting_loop(300))
        cpu.run()
        tc = cpu._tracecache
        (head,) = tc.traces
        before = cpu.instructions_retired
        assert tc.execute(cpu, head, 0) == 0
        assert cpu.instructions_retired == before

    def test_partial_fuel_runs_bounded_iterations(self):
        binary = counting_loop(300)
        cpu = fresh_cpu(binary)
        cpu.run()
        tc = cpu._tracecache
        (head,) = tc.traces
        cpu.halted = False
        cpu.regs.rip = binary.entry
        cpu.regs.write64(Reg.RBX, 1 << 20)  # effectively endless loop
        cpu.regs.rip = head
        retired = tc.execute(cpu, head, 10)
        assert 0 < retired <= 10
        # The trace left RIP at its head: the interpreter (or the next
        # trace entry) can continue seamlessly.
        assert cpu.regs.rip == head

    def test_page_fault_inside_trace_matches_interpreter(self):
        """A store that faults mid-trace spills the exact pre-fault
        state: same RIP (the faulting op), same registers, same count."""

        def pusher(iterations):
            asm = Assembler(base=BASE)
            asm.mov_imm32(Reg.RBX, iterations)
            asm.label("loop")
            asm.push(Reg.RBX)
            asm.dec(Reg.RBX)
            asm.jne("loop")
            asm.hlt()
            return asm.build()

        binary = pusher(5000)  # overruns the one mapped stack page
        results = []
        for tracecache in (True, False):
            mem = PagedMemory()
            binary.load(mem)
            mem.map_region(STACK_BASE, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
            cpu = CPU(mem, tracecache=tracecache)
            cpu.regs.rip = binary.entry
            cpu.regs.rsp = STACK_BASE + 0x1000
            with pytest.raises(PageFault):
                cpu.run()
            results.append(final_state(cpu))
        assert results[0] == results[1]


class TestInvalidation:
    def test_store_to_trace_text_evicts_and_retraces(self):
        binary = counting_loop(300)
        cpu = fresh_cpu(binary)
        cpu.run()
        tc = cpu._tracecache
        assert tc.traces
        # Patch inc rax -> dec rax in the loop body (supervisor store).
        text = cpu.mem.read(BASE, 64)
        off = text.index(b"\x48\xff\xc0")
        cpu.mem.wp_enabled = False
        cpu.mem.write(BASE + off, b"\x48\xff\xc8")
        cpu.mem.wp_enabled = True
        assert not tc.traces
        assert cpu.trace_stats.invalidations >= 1
        cpu.halted = False
        cpu.regs.rip = binary.entry
        cpu.run()
        # The rerun trace-compiled the *patched* loop: rax counted down.
        assert cpu.regs.rax == (0 - 300) % (1 << 64)
        assert cpu.trace_stats.compiles >= 2

    def test_stale_generation_caught_at_entry_without_observer(self):
        """A trace can go stale with no write observed by this CPU (the
        SMP attach-later situation): entry stamps are the ground truth."""
        binary = counting_loop(300)
        cpu = fresh_cpu(binary)
        cpu.run()
        tc = cpu._tracecache
        (head,) = tc.traces
        trace = tc.traces[head]
        # Forge a stale stamp instead of routing a write through the
        # observer protocol.
        trace.pages = tuple((index, stamp - 1) for index, stamp in trace.pages)
        assert tc.execute(cpu, head, 1000) == 0
        assert not tc.traces
        assert cpu.trace_stats.invalidations >= 1

    def test_self_modifying_loop_bails_mid_trace(self):
        """A loop that stores to its own text page: the write-observer
        flips the live cell and the trace exits before running another
        instruction from stale bytes, every iteration, with no
        divergence from the interpreter."""

        def smc_loop(iterations):
            asm = Assembler(base=BASE)
            asm.mov_imm32(Reg.RBX, iterations)
            asm.label("loop")
            asm.inc(Reg.RAX)
            asm.store_rsp32(0, Reg.RCX)  # store lands on this very page
            asm.dec(Reg.RBX)
            asm.jne("loop")
            asm.hlt()
            return asm.build()

        binary = smc_loop(120)
        states = []
        for tracecache in (True, False):
            mem = PagedMemory()
            binary.load(mem, writable_text=True)
            cpu = CPU(mem, tracecache=tracecache)
            cpu.regs.rip = binary.entry
            # RSP aims at padding at the end of the text page; RCX holds
            # the bytes already there, so the store is architecturally a
            # no-op but still bumps the page generation every iteration.
            target = BASE + 0xF00
            cpu.regs.rsp = target
            cpu.regs.write64(Reg.RCX, int.from_bytes(mem.read(target, 4), "little"))
            cpu.run()
            states.append(final_state(cpu))
            if tracecache:
                assert cpu.trace_stats.invalidations >= 1
        assert states[0] == states[1]
