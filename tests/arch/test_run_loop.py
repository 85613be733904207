"""``CPU.run`` against ``CPU.step``: the run loop is step semantics, fast.

``run`` dispatches native stubs and cached ops inline instead of calling
``step()`` per instruction.  These differentials pin it to ``step()``:
on random programs with vsyscall stub calls, trapping ``syscall``s and
self-modifying stores, both retire the same instructions with the same
registers, clock, icache and trace counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Assembler, CPU, PagedMemory, Reg
from repro.arch.cpu import TrapKind
from repro.arch.encoding import enc_call_abs_ind
from repro.arch.memory import PageFlags
from repro.core import CountingServices
from repro.core.vsyscall import slot_addr
from repro.core.xlibos import XLibOS
from repro.perf.clock import SimClock

BASE = 0x400000
STACK_BASE = 0x7F0000
#: Deliberately not a power of two: float sums are order-sensitive, so
#: the clock comparison checks the charging order too.
INSTRUCTION_NS = 0.37
TRAP_NS = 101.3
#: Body registers; RBX is the loop counter and RBP saves RSP around a
#: self-modifying store, so neither is touched at random.
_REGS = [Reg.RAX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.RDI]
_NRS = [0, 1, 39, 60, 231]

_op = st.one_of(
    st.tuples(st.just("mov_imm32"), st.sampled_from(_REGS), st.integers(0, 2**31 - 1)),
    st.tuples(st.just("mov_reg"), st.sampled_from(_REGS), st.sampled_from(_REGS)),
    st.tuples(st.just("add"), st.sampled_from(_REGS), st.integers(-128, 127)),
    st.tuples(st.just("cmp"), st.sampled_from(_REGS), st.integers(-128, 127)),
    st.tuples(st.just("dec"), st.sampled_from(_REGS)),
    st.tuples(st.just("xor"), st.sampled_from(_REGS), st.sampled_from(_REGS)),
    st.tuples(st.just("push"), st.sampled_from(_REGS)),
    st.tuples(st.just("pop"), st.sampled_from(_REGS)),
    st.tuples(st.just("skip_next")),
    st.tuples(st.just("stub_call"), st.sampled_from(_NRS)),
    st.tuples(st.just("syscall"), st.sampled_from(_NRS)),
    st.tuples(st.just("smc"), st.integers(0, 2**32 - 1)),
)


def _assemble(ops, iterations):
    """A counted loop around ``ops``.

    The loop body starts with ``mov $imm, %esi``; an ``smc`` op rewrites
    that immediate in place (RSP pointed at the text for one 4-byte
    store), so later iterations run rewritten, previously cached code.
    """
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.label("loop")
    patched_imm = asm.here + 1
    asm.mov_imm32(Reg.RSI, 0)
    pushes = 0
    for index, op in enumerate(ops):
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
            asm.jmp8(f"skip{index}")
            asm.nop(3)
            asm.label(f"skip{index}")
        elif name == "stub_call":
            asm.raw(enc_call_abs_ind(slot_addr(op[1])))
        elif name == "syscall":
            asm.mov_imm32(Reg.RAX, op[1])
            asm.raw_syscall()
        elif name == "smc":
            asm.mov_reg(Reg.RBP, Reg.RSP)
            asm.mov_imm32(Reg.RSP, patched_imm)
            asm.mov_imm32(Reg.RDX, op[1])
            asm.store_rsp32(0, Reg.RDX)
            asm.mov_reg(Reg.RSP, Reg.RBP)
        else:
            getattr(asm, name)(*op[1:])
    for _ in range(pushes):
        asm.pop(Reg.RCX)
    asm.dec(Reg.RBX)
    asm.je("done")
    asm.jmp("loop")  # rel32: a long body is out of jcc rel8 range
    asm.label("done")
    asm.hlt()
    return asm.build()


def _machine(binary, icache=True, tracecache=False):
    """A CPU over writable text, the vsyscall page and a forwarding
    ``syscall`` trap handler; returns ``(cpu, clock, services)``."""
    clock = SimClock()
    mem = PagedMemory()
    binary.load(mem, writable_text=True)
    mem.map_region(STACK_BASE, 0x10000, PageFlags.USER | PageFlags.WRITABLE)
    services = CountingServices(default_result=7)
    libos = XLibOS(mem, services, clock=clock)
    cpu = CPU(mem, clock, INSTRUCTION_NS, icache=icache, tracecache=tracecache)
    libos.attach(cpu)

    def on_trap(cpu, trap):
        if trap.kind is not TrapKind.SYSCALL:
            raise trap
        clock.advance(TRAP_NS)
        libos.forwarded_entry(cpu, trap.rip)

    cpu.trap_handler = on_trap
    cpu.regs.rip = binary.entry
    cpu.regs.rsp = STACK_BASE + 0x8000
    if cpu._tracecache is not None:
        # Short random loops only get hot with a low per-CPU threshold.
        cpu._tracecache.hot_threshold = 2
    return cpu, clock, services


def _state(cpu, clock, services, binary):
    return {
        "regs": cpu.regs.snapshot(),
        "flags": (cpu.regs.zf, cpu.regs.sf, cpu.regs.cf),
        "halted": cpu.halted,
        "retired": cpu.instructions_retired,
        "clock_ns": clock.now_ns,
        "icache": cpu.icache_stats.as_dict(),
        "trace": cpu.trace_stats.as_dict(),
        "syscalls": list(services.calls),
        "text": cpu.mem.read(BASE, len(binary.code)),
    }


def _run_budget(cpu, budget):
    try:
        cpu.run(budget)
    except RuntimeError:
        assert cpu.instructions_retired == budget


def _step_budget(cpu, budget):
    for _ in range(budget):
        if cpu.halted:
            break
        cpu.step()


def _reference_run(cpu, max_instructions=10_000_000):
    """The trace-dispatching loop spelled out with ``step()``."""
    start = cpu.instructions_retired
    tc = cpu._tracecache
    while not cpu.halted:
        executed = cpu.instructions_retired - start
        if tc.traces and tc.execute(cpu, cpu.regs.rip, max_instructions - executed):
            continue
        cpu.step()


programs = st.tuples(
    st.lists(_op, min_size=1, max_size=24), st.integers(1, 6)
)


class TestRunMatchesStep:
    @given(programs, st.integers(1, 400), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_run_n_equals_n_steps(self, program, budget, icache):
        binary = _assemble(*program)
        ran = _machine(binary, icache=icache)
        stepped = _machine(binary, icache=icache)
        _run_budget(ran[0], budget)
        _step_budget(stepped[0], budget)
        assert _state(*ran, binary) == _state(*stepped, binary)

    @given(programs)
    @settings(max_examples=60, deadline=None)
    def test_traced_run_equals_step_with_trace_dispatch(self, program):
        binary = _assemble(*program)
        ran = _machine(binary, tracecache=True)
        stepped = _machine(binary, tracecache=True)
        ran[0].run()
        _reference_run(stepped[0])
        assert _state(*ran, binary) == _state(*stepped, binary)

    def test_generated_programs_reach_every_path(self):
        """The op mix really exercises stubs, traps, SMC and traces."""
        ops = [
            ("stub_call", 39),
            ("syscall", 60),
            ("push", Reg.RAX),
            ("smc", 0x1234),
            ("pop", Reg.RCX),
        ]
        binary = _assemble(ops, 6)
        cpu, clock, services = _machine(binary, tracecache=True)
        cpu.run()
        assert services.calls == [39, 60] * 6
        # Iterations after the first ran the rewritten ``mov``.
        assert cpu.regs.read64(Reg.RSI) == 0x1234
        assert cpu.mem.read_u32(BASE + 6) == 0x1234
        assert cpu.icache_stats.invalidations > 0
        assert cpu.trace_stats.compiles > 0
