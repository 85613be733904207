"""The process-wide shared decode cache under every CPU's block cache.

A block taken from :data:`repro.arch.cpu.SHARED_BLOCKS` must be exactly
what a private decode on the filling CPU would produce at that moment:
same ops, same native-stub cut, same page stamps, same faults.  The
oracle below is the private decode loop the block cache used before the
shared cache existed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Assembler, CPU, PagedMemory, Reg
from repro.arch.cpu import (
    HANDLERS,
    MAX_BLOCK_INSTRS,
    MAX_INSTR_LEN,
    SHARED_BLOCK_LIMIT,
    SHARED_BLOCKS,
    Trap,
    TrapKind,
)
from repro.arch.encoding import (
    BLOCK_TERMINATORS,
    InvalidOpcode,
    decode,
    enc_call_abs_ind,
    enc_dec_r64,
    enc_hlt,
    enc_inc_r64,
    enc_jcc_rel8,
    enc_mov_r32_imm32,
    enc_mov_r64_imm32,
    enc_nop,
    enc_push_r64,
    enc_syscall,
)
from repro.arch.memory import PAGE_SIZE, PageFault, PageFlags
from repro.core import CountingServices, XContainer
from repro.core.vsyscall import slot_addr

TEXT_PAGE = 0x400000
NEXT_PAGE = TEXT_PAGE + PAGE_SIZE
RX = PageFlags.USER | PageFlags.EXECUTABLE


def private_ops(cpu, rip):
    """Decode the block at ``rip`` the way a CPU without the shared
    cache does: straight-line, cut before a native stub."""
    page_end = (rip & ~(PAGE_SIZE - 1)) + PAGE_SIZE
    window = cpu.mem.fetch(rip, (page_end - rip) + MAX_INSTR_LEN)
    ops = []
    offset = 0
    while True:
        addr = rip + offset
        if addr >= page_end:
            break
        if ops and addr in cpu.native_stubs:
            break
        try:
            instr = decode(window, offset)
        except InvalidOpcode:
            if not ops:
                raise
            break
        offset += instr.length
        ops.append((addr, HANDLERS[instr.mnemonic], instr, rip + offset))
        if instr.mnemonic in BLOCK_TERMINATORS or len(ops) >= MAX_BLOCK_INSTRS:
            break
    return tuple(ops)


def expected_fill(cpu, rip):
    """``(ops, pages)`` of a private fill, or the exception type."""
    try:
        ops = private_ops(cpu, rip)
    except (InvalidOpcode, PageFault) as exc:
        return type(exc)
    end = ops[-1][3]
    pages = tuple(
        (index, cpu.mem.page_generation_index(index))
        for index in range(rip >> 12, ((end - 1) >> 12) + 1)
    )
    return ops, pages


def actual_fill(cpu, rip):
    try:
        block = cpu._fill_block(rip)
    except InvalidOpcode:
        return InvalidOpcode
    except Trap as trap:
        assert trap.kind is TrapKind.PAGE_FAULT
        return PageFault
    return tuple(block.ops), block.pages


# Instruction encodings that decode, plus bytes that do not (0x0f 0x0b,
# a lone 0x48, 0x60) so blocks also end in failed decodes.
_CHUNKS = [
    enc_nop(),
    enc_hlt(),
    enc_syscall(),
    enc_inc_r64(Reg.RAX),
    enc_dec_r64(Reg.RBX),
    enc_push_r64(Reg.RCX),
    enc_jcc_rel8("jne", -4),
    enc_mov_r32_imm32(Reg.RAX, 39),
    enc_mov_r64_imm32(Reg.RAX, 15),
    enc_call_abs_ind(slot_addr(39)),
    b"\x0f\x0b",
    b"\x48",
    b"\x60",
    b"\xb8\x01",
]
_chunk = st.sampled_from(_CHUNKS)

#: Offsets are relative to the start of the text, which is placed so
#: that it straddles the end of the first page.
_action = st.one_of(
    st.tuples(st.just("fill"), st.integers(0, 1), st.integers(0, 47)),
    st.tuples(st.just("nx"), st.integers(0, 1), st.booleans()),
    st.tuples(
        st.just("poke"), st.integers(0, 1), st.integers(0, 47), _chunk
    ),
    # An ABOM-shaped patch: ``callq *slot`` over a ``mov $nr,%eax``
    # plus ``syscall`` site.
    st.tuples(
        st.just("abom"), st.integers(0, 1), st.integers(0, 40),
        st.integers(0, 382),
    ),
    st.tuples(st.just("stub"), st.integers(0, 1), st.integers(1, 47)),
)


def _domain(text, origin, neighbour):
    """A CPU over ``text`` at ``origin``; the page after the text page
    is executable, non-executable or unmapped."""
    mem = PagedMemory()
    mem.map_region(TEXT_PAGE, PAGE_SIZE, RX | PageFlags.WRITABLE)
    if neighbour != "unmapped":
        flags = RX if neighbour == "exec" else PageFlags.USER
        mem.map_region(NEXT_PAGE, PAGE_SIZE, flags | PageFlags.WRITABLE)
        mem.write(origin, text)
    else:
        mem.write(origin, text[: NEXT_PAGE - origin])
    return CPU(mem)


class TestSharedEqualsPrivate:
    @given(
        st.lists(_chunk, min_size=4, max_size=24),
        st.integers(1, 30),
        st.sampled_from(["exec", "nx", "unmapped"]),
        st.sampled_from(["exec", "nx", "unmapped"]),
        st.lists(_action, min_size=1, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_fill_equals_a_private_decode(
        self, chunks, before_end, first, second, actions
    ):
        """Two domains share a text that crosses a page end; each sees
        its own neighbour page, NX flips, stores, ABOM-shaped patches
        and native stubs, and every fill equals a private decode."""
        text = b"".join(chunks).ljust(48, b"\x90")
        origin = NEXT_PAGE - before_end
        cpus = [_domain(text, origin, first), _domain(text, origin, second)]
        mapped = [first != "unmapped", second != "unmapped"]
        for action in actions:
            kind, which = action[0], action[1]
            cpu = cpus[which]
            mem = cpu.mem
            if kind == "fill":
                rip = origin + action[2]
                assert actual_fill(cpu, rip) == expected_fill(cpu, rip)
            elif kind == "nx" and mapped[which]:
                flags = RX if action[2] else PageFlags.USER
                mem.set_page_flags(NEXT_PAGE, flags | PageFlags.WRITABLE)
            elif kind == "poke":
                addr = origin + action[2]
                data = action[3]
                if not mapped[which]:
                    data = data[: max(0, NEXT_PAGE - addr)]
                if data:
                    mem.write(addr, data)
            elif kind == "abom":
                addr = origin + action[2]
                site = enc_mov_r32_imm32(Reg.RAX, action[3]) + enc_syscall()
                if mapped[which] or addr + len(site) <= NEXT_PAGE:
                    mem.write(addr, site)
                    patch = enc_call_abs_ind(slot_addr(action[3]))
                    assert mem.compare_exchange(addr, site, patch)
            elif kind == "stub":
                cpu.native_stubs[origin + action[2]] = lambda cpu: None
        for cpu in cpus:
            for offset in range(0, 48, 3):
                rip = origin + offset
                assert actual_fill(cpu, rip) == expected_fill(cpu, rip)

    def test_second_domain_fills_from_the_shared_cache(self):
        asm = Assembler(base=TEXT_PAGE)
        asm.mov_imm32(Reg.RBX, 5)
        asm.label("loop")
        asm.inc(Reg.RAX)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        binary = asm.build()
        SHARED_BLOCKS.clear()  # a cold cache: no flush mid-test
        runs = []
        for _ in range(2):
            mem = PagedMemory()
            binary.load(mem)
            cpu = CPU(mem)
            cpu.regs.rip = binary.entry
            cpu.run()
            runs.append(cpu)
        first, second = runs
        assert second.icache_stats.shared_hits == second.icache_stats.misses
        assert second.icache_stats.as_dict() == first.icache_stats.as_dict()
        assert second.regs.snapshot() == first.regs.snapshot()

    def test_nx_neighbour_cut_is_not_reused_once_executable(self):
        """A decode that failed because the next page was NX must not
        serve a domain whose next page is executable."""
        text = enc_nop() + enc_mov_r32_imm32(Reg.RAX, 7) + enc_hlt()
        origin = NEXT_PAGE - 3  # the mov straddles the page end
        nx = _domain(text, origin, "nx")
        ex = _domain(text, origin, "exec")
        (ops, _pages) = actual_fill(nx, origin)
        assert [op[2].mnemonic for op in ops] == ["nop"]
        (ops, _pages) = actual_fill(ex, origin)
        assert [op[2].mnemonic for op in ops] == ["nop", "mov_r32_imm32"]
        assert ex.icache_stats.shared_hits == 0


class TestBound:
    def test_cache_never_exceeds_its_limit(self):
        """Filling more distinct blocks than the bound keeps the cache
        at or under :data:`SHARED_BLOCK_LIMIT`."""
        pages = SHARED_BLOCK_LIMIT // PAGE_SIZE + 2
        mem = PagedMemory()
        mem.map_region(TEXT_PAGE, pages * PAGE_SIZE, RX | PageFlags.WRITABLE)
        mem.write(TEXT_PAGE, enc_hlt() * (pages * PAGE_SIZE))
        cpu = CPU(mem)
        largest = 0
        for rip in range(TEXT_PAGE, TEXT_PAGE + pages * PAGE_SIZE):
            cpu._fill_block(rip)
            largest = max(largest, len(SHARED_BLOCKS))
        assert largest == SHARED_BLOCK_LIMIT
        assert len(SHARED_BLOCKS) <= SHARED_BLOCK_LIMIT


def _site_loop():
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 6)
    asm.label("loop")
    asm.syscall_site(39)
    asm.syscall_site(15, style="mov_rax")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


def _outcome(xc, services):
    cpu = xc.cpu
    return (
        services.calls,
        cpu.regs.snapshot(),
        cpu.instructions_retired,
        xc.clock.now_ns,
        cpu.icache_stats.as_dict(),
        cpu.trace_stats.as_dict(),
        xc.abom_stats.patches_7byte,
        xc.abom_stats.patches_9byte,
    )


class TestTwoDomainsShareText:
    def test_patching_one_domain_leaves_the_other_unchanged(self):
        binary = _site_loop()
        site_block = binary.sites[0].syscall_addr - 5
        # The reference: one domain on a cold shared cache.
        SHARED_BLOCKS.clear()
        ref_services = CountingServices()
        reference = XContainer(ref_services, name="ref")
        reference.run(binary)
        expected = _outcome(reference, ref_services)
        # Domain b holds the text while ABOM patches domain a's copy.
        a_services, b_services = CountingServices(), CountingServices()
        a = XContainer(a_services, name="a")
        b = XContainer(b_services, name="b")
        b.load(binary)
        a.run(binary)
        assert a.abom_stats.patches_7byte == 1
        assert a.abom_stats.patches_9byte == 1
        # b then runs exactly as a lone domain does, from shared blocks.
        b.run(binary)
        assert _outcome(b, b_services) == expected
        assert b.cpu.icache_stats.shared_hits > 0
        # Each domain decodes its own bytes at the site: a fresh copy of
        # the text the unpatched site (from the shared cache), a the
        # patched call.
        fresh = XContainer(CountingServices(), name="fresh")
        fresh.load(binary)
        ops = fresh.cpu._fill_block(binary.entry).ops
        assert [op[2].mnemonic for op in ops] == [
            "mov_r32_imm32", "mov_r32_imm32", "syscall"
        ]
        assert fresh.cpu.icache_stats.shared_hits == 1
        ops = a.cpu._fill_block(site_block).ops
        assert ops[0][2].mnemonic == "call_abs_ind"
