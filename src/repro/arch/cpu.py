"""CPU interpreter for the x86-64 subset.

The interpreter executes real machine code from :class:`PagedMemory` and
delivers traps (``syscall``, #UD, #BP, page faults) to a pluggable trap
handler — in this reproduction the trap handler is the platform's kernel
model (host Linux, stock Xen PV, the X-Kernel, the gVisor Sentry, ...).

Two hooks make the LibOS integration possible without writing the whole
LibOS in machine code:

* **trap handler** — invoked with a :class:`Trap`; it may mutate CPU state
  (deliver the syscall, fix RIP after a #UD in a patched call tail, ...);
* **native stubs** — addresses that, when reached by RIP, invoke a Python
  callable instead of fetching code.  The X-LibOS maps its syscall-entry
  stubs (the targets of the vsyscall entry table) this way.  A stub is
  responsible for its own ``ret`` semantics.

Decode performance comes from a **basic-block cache**: on the first visit
to an address the interpreter decodes straight-line instructions until a
control transfer, trap instruction, or page boundary, resolves each one's
semantics handler from the dispatch table, and stores the block stamped
with the generation counters of the page(s) it spans.  Later visits
execute the pre-decoded block without touching the decoder.  A write to
any stamped page — including ABOM's ``cmpxchg`` patches landing on live
text (§4.4) — invalidates the block before its next execution, so
self-modifying code is always observed.  On top of the block cache sits
a **trace cache** (:mod:`repro.arch.tracecache`): hot block chains are
stitched into superblocks and compiled into specialized Python functions
dispatched from :meth:`CPU.run`, with guard checks bailing back to the
interpreter at the exact RIP.  Under every CPU's block cache sits one
process-wide :data:`SHARED_BLOCKS` cache, so a text that many domains
run is decoded once per process, not once per vCPU.  See
``docs/interpreter_performance.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.arch.encoding import (
    ALL_MNEMONICS,
    BLOCK_TERMINATORS,
    Instruction,
    InvalidOpcode,
    decode,
)
from repro.arch.memory import PAGE_SHIFT, PAGE_SIZE, PagedMemory, PageFault
from repro.arch.registers import Reg, RegisterFile, to_signed64
from repro.arch.tracecache import TraceCache, TraceStats
from repro.faults import sites

MASK64 = (1 << 64) - 1
MAX_INSTR_LEN = 15
#: Straight-line decode stops after this many instructions per block.
MAX_BLOCK_INSTRS = 64
#: Blocks the process-wide decode cache holds before it starts over.
SHARED_BLOCK_LIMIT = 4096


class TrapKind(enum.Enum):
    SYSCALL = "syscall"
    INVALID_OPCODE = "invalid_opcode"
    BREAKPOINT = "breakpoint"
    PAGE_FAULT = "page_fault"


class Trap(Exception):
    """An architectural trap delivered to the platform's kernel model."""

    def __init__(self, kind: TrapKind, rip: int, detail: str = "") -> None:
        super().__init__(f"{kind.value} at {rip:#x} {detail}".strip())
        self.kind = kind
        self.rip = rip
        self.detail = detail


class CpuHalted(Exception):
    """Raised by :meth:`CPU.run` when the program halts (hlt / exit)."""


TrapHandler = Callable[["CPU", Trap], None]
NativeStub = Callable[["CPU"], None]


# ----------------------------------------------------------------------
# Semantics handlers (table-driven dispatch)
#
# One function per mnemonic, resolved once at decode time and stored on
# the cached block, replacing the former ~30-arm if/elif chain.  Every
# handler receives the pre-computed fall-through address and is
# responsible for setting ``regs.rip`` (taken branches override it).
# ----------------------------------------------------------------------
def _h_nop(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    cpu.regs.rip = next_rip


def _h_hlt(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    cpu.halted = True


def _h_syscall(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    # Deliver BEFORE advancing RIP: handlers (the X-Kernel's ABOM hook in
    # particular) need the syscall instruction's address.
    cpu._deliver(Trap(TrapKind.SYSCALL, cpu.regs.rip))


def _h_int3(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    cpu._deliver(Trap(TrapKind.BREAKPOINT, cpu.regs.rip))


def _h_mov_r32_imm32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    cpu.regs.write32(reg, imm)
    cpu.regs.rip = next_rip


def _h_mov_r64_imm32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    cpu.regs.write64(reg, imm & MASK64)
    cpu.regs.rip = next_rip


def _h_mov_r64_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    dst, src = instr.operands
    cpu.regs.write64(dst, cpu.regs.read64(src))
    cpu.regs.rip = next_rip


def _h_mov_r32_r32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    dst, src = instr.operands
    cpu.regs.write32(dst, cpu.regs.read32(src))
    cpu.regs.rip = next_rip


def _h_mov_r32_rsp_disp8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, disp = instr.operands
    cpu.regs.write32(reg, cpu.mem.read_u32((cpu.regs.rsp + disp) & MASK64))
    cpu.regs.rip = next_rip


def _h_mov_r64_rsp_disp8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, disp = instr.operands
    cpu.regs.write64(reg, cpu.mem.read_u64((cpu.regs.rsp + disp) & MASK64))
    cpu.regs.rip = next_rip


def _h_mov_rsp_disp8_r32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    disp, reg = instr.operands
    cpu.mem.write_u32((cpu.regs.rsp + disp) & MASK64, cpu.regs.read32(reg))
    cpu.regs.rip = next_rip


def _h_mov_rsp_disp8_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    disp, reg = instr.operands
    cpu.mem.write_u64((cpu.regs.rsp + disp) & MASK64, cpu.regs.read64(reg))
    cpu.regs.rip = next_rip


def _h_push_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (reg,) = instr.operands
    cpu.push64(cpu.regs.read64(reg))
    cpu.regs.rip = next_rip


def _h_pop_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (reg,) = instr.operands
    cpu.regs.write64(reg, cpu.pop64())
    cpu.regs.rip = next_rip


def _h_ret(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    cpu.regs.rip = cpu.pop64()


def _h_call_rel32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    cpu.push64(next_rip)
    cpu.regs.rip = (next_rip + rel) & MASK64


def _h_call_abs_ind(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (slot_addr,) = instr.operands
    target = cpu.mem.read_u64(slot_addr)
    cpu.push64(next_rip)
    cpu.regs.rip = target


def _h_jmp_rel(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    cpu.regs.rip = (next_rip + rel) & MASK64


def _h_je_rel8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    cpu.regs.rip = (next_rip + rel) & MASK64 if cpu.regs.zf else next_rip


def _h_jne_rel8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    cpu.regs.rip = next_rip if cpu.regs.zf else (next_rip + rel) & MASK64


def _h_jl_rel8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    cpu.regs.rip = (next_rip + rel) & MASK64 if cpu.regs.sf else next_rip


def _h_jg_rel8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    taken = not cpu.regs.sf and not cpu.regs.zf
    cpu.regs.rip = (next_rip + rel) & MASK64 if taken else next_rip


def _h_add_r64_imm8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    result = (cpu.regs.read64(reg) + imm) & MASK64
    cpu.regs.write64(reg, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_sub_r64_imm8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    result = (cpu.regs.read64(reg) - imm) & MASK64
    cpu.regs.write64(reg, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_cmp_r64_imm8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    value = cpu.regs.read64(reg)
    result = (value - imm) & MASK64
    cpu._set_flags(result)
    cpu.regs.cf = value < (imm & MASK64)
    cpu.regs.rip = next_rip


def _h_inc_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (reg,) = instr.operands
    result = (cpu.regs.read64(reg) + 1) & MASK64
    cpu.regs.write64(reg, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_dec_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (reg,) = instr.operands
    result = (cpu.regs.read64(reg) - 1) & MASK64
    cpu.regs.write64(reg, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_xor_r32_r32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    dst, src = instr.operands
    result = cpu.regs.read32(dst) ^ cpu.regs.read32(src)
    cpu.regs.write32(dst, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_xor_r64_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    dst, src = instr.operands
    result = cpu.regs.read64(dst) ^ cpu.regs.read64(src)
    cpu.regs.write64(dst, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


InstrHandler = Callable[["CPU", Instruction, int], None]

HANDLERS: dict[str, InstrHandler] = {
    "nop": _h_nop,
    "hlt": _h_hlt,
    "syscall": _h_syscall,
    "int3": _h_int3,
    "mov_r32_imm32": _h_mov_r32_imm32,
    "mov_r64_imm32": _h_mov_r64_imm32,
    "mov_r64_r64": _h_mov_r64_r64,
    "mov_r32_r32": _h_mov_r32_r32,
    "mov_r32_rsp_disp8": _h_mov_r32_rsp_disp8,
    "mov_r64_rsp_disp8": _h_mov_r64_rsp_disp8,
    "mov_rsp_disp8_r32": _h_mov_rsp_disp8_r32,
    "mov_rsp_disp8_r64": _h_mov_rsp_disp8_r64,
    "push_r64": _h_push_r64,
    "pop_r64": _h_pop_r64,
    "ret": _h_ret,
    "call_rel32": _h_call_rel32,
    "call_abs_ind": _h_call_abs_ind,
    "jmp_rel8": _h_jmp_rel,
    "jmp_rel32": _h_jmp_rel,
    "je_rel8": _h_je_rel8,
    "jne_rel8": _h_jne_rel8,
    "jl_rel8": _h_jl_rel8,
    "jg_rel8": _h_jg_rel8,
    "add_r64_imm8": _h_add_r64_imm8,
    "sub_r64_imm8": _h_sub_r64_imm8,
    "cmp_r64_imm8": _h_cmp_r64_imm8,
    "inc_r64": _h_inc_r64,
    "dec_r64": _h_dec_r64,
    "xor_r32_r32": _h_xor_r32_r32,
    "xor_r64_r64": _h_xor_r64_r64,
}

assert set(HANDLERS) == ALL_MNEMONICS, "decoder and executor out of sync"


# ----------------------------------------------------------------------
# Decode cache
# ----------------------------------------------------------------------
@dataclass
class ICacheStats:
    """Decode-cache counters, exposed for benchmarks and perf reporting.

    ``hits`` counts instructions executed from cached blocks, ``misses``
    counts block fills, and ``invalidations`` counts blocks dropped
    because a store (or permission change) touched one of the pages they
    were decoded from.  ``shared_hits`` counts the fills served from
    :data:`SHARED_BLOCKS` without decoding: each is still a miss.  It
    depends on what the process decoded before, so it is a host-side
    count and stays out of :meth:`as_dict`.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    shared_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class _Block:
    """A decoded straight-line run of instructions.

    ``ops`` holds ``(addr, handler, instr, next_rip)`` tuples; ``pages``
    the ``(page_index, generation)`` stamps of every page the block's
    bytes span.  ``live`` flips to False on eviction so an executing
    cursor holding a reference abandons the block mid-run — the moment an
    ABOM patch lands on the current block, the very next instruction is
    re-fetched from the rewritten bytes.
    """

    __slots__ = ("start", "ops", "pages", "live")

    def __init__(self, start, ops, pages) -> None:
        self.start = start
        self.ops = ops
        self.pages = pages
        self.live = True


class SharedBlocks:
    """Decoded blocks shared by every CPU in the process.

    An entry is keyed by its start address plus the bytes the decoder
    consumed: the block's own bytes, and for a block ended by bytes that
    do not decode, the :data:`MAX_INSTR_LEN` bytes of lookahead the
    failed decode could read.  The entry also records how many bytes it
    fetched, so a window that an unmapped or NX page cut short only
    matches a window cut short at the same place.  A lookup fetches that
    span through the filling CPU's own ``fetch`` (which checks mapping
    and EXECUTABLE in that CPU's address space) and reuses the entry
    only when the bytes are equal; a hit is therefore exactly what a
    fresh decode there would produce.

    Entries are ``(addr, handler, Instruction, next_rip)`` tuples and
    hold no CPU, memory or container reference.  Native-stub cuts, page
    stamps and eviction stay per CPU: a store drops that CPU's block,
    and its refill misses here (the bytes differ) and adds a new entry.
    Past :data:`SHARED_BLOCK_LIMIT` entries the cache starts over.
    """

    __slots__ = ("_by_addr", "_size")

    def __init__(self) -> None:
        #: start address -> fetched length -> consumed bytes -> ops.
        self._by_addr: dict[int, dict[int, dict[bytes, tuple]]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def lookup(self, fetch: Callable[[int, int], bytes], rip: int):
        """The shared ops for the bytes at ``rip`` now, or None."""
        by_length = self._by_addr.get(rip)
        if by_length is not None:
            for length, spans in by_length.items():
                ops = spans.get(fetch(rip, length))
                if ops is not None:
                    return ops
        return None

    def insert(self, rip: int, length: int, span: bytes, ops: tuple) -> None:
        if self._size >= SHARED_BLOCK_LIMIT:
            self.clear()
        spans = self._by_addr.setdefault(rip, {}).setdefault(length, {})
        if span not in spans:
            spans[span] = ops
            self._size += 1

    def clear(self) -> None:
        self._by_addr.clear()
        self._size = 0


#: The process-wide decode cache under every CPU's block cache.
SHARED_BLOCKS = SharedBlocks()


def _decode_block(fetch: Callable[[int, int], bytes], rip: int) -> tuple:
    """Decode the block at ``rip``, ignoring native stubs, and share it.

    Decoding runs straight-line until a control transfer, trap
    instruction, page boundary, :data:`MAX_BLOCK_INSTRS`, or bytes that
    do not decode.  Raises :class:`InvalidOpcode` when the *first*
    instruction does not decode.
    """
    page_end = (rip & ~(PAGE_SIZE - 1)) + PAGE_SIZE
    window = fetch(rip, (page_end - rip) + MAX_INSTR_LEN)
    ops = []
    offset = 0
    consumed = 0
    while rip + offset < page_end:
        try:
            instr = decode(window, offset)
        except InvalidOpcode:
            if not ops:
                raise
            consumed = offset + MAX_INSTR_LEN
            break
        addr = rip + offset
        offset += instr.length
        ops.append((addr, HANDLERS[instr.mnemonic], instr, rip + offset))
        if instr.mnemonic in BLOCK_TERMINATORS or len(ops) >= MAX_BLOCK_INSTRS:
            break
    if not consumed:
        # Every decode succeeded: the block's own bytes decide it.
        consumed = offset
    ops = tuple(ops)
    SHARED_BLOCKS.insert(rip, consumed, window[:consumed], ops)
    return ops


class CPU:
    """Interprets the instruction subset over paged memory."""

    def __init__(
        self,
        memory: PagedMemory,
        clock=None,
        instruction_ns: float = 0.0,
        icache: bool = True,
        tracecache: bool = True,
        probe=None,
    ) -> None:
        self.mem = memory
        self.regs = RegisterFile()
        self.clock = clock
        self.instruction_ns = instruction_ns
        self.trap_handler: Optional[TrapHandler] = None
        self.native_stubs: dict[int, NativeStub] = {}
        #: ``libos_entry(cpu, nr)``: the lightweight syscall entry the
        #: shared vsyscall stubs call (set by ``VsyscallPage.attach``).
        self.libos_entry: Optional[Callable[["CPU", int], None]] = None
        self.instructions_retired = 0
        self.halted = False
        #: Optional :class:`repro.obs.probe.Probe` (decode, trace compile).
        self.probe = probe
        #: Name this CPU's accesses are attributed to by the sanitizers.
        self.actor = "cpu"
        self.icache_enabled = icache
        self.icache_stats = ICacheStats()
        self.trace_stats = TraceStats()
        #: Cached blocks keyed by start address.
        self._blocks: dict[int, _Block] = {}
        #: page index -> start addresses of blocks decoded from that page.
        self._page_blocks: dict[int, set[int]] = {}
        #: (block, next op index) continuation for straight-line execution.
        self._cursor: Optional[tuple[_Block, int]] = None
        # The trace cache profiles block entries observed by the icache,
        # so it requires the icache to be enabled.
        self._tracecache: Optional[TraceCache] = (
            TraceCache(self, stats=self.trace_stats)
            if icache and tracecache
            else None
        )
        if icache:
            memory.add_code_observer(self._invalidate_written)

    # ------------------------------------------------------------------
    # Stack helpers
    # ------------------------------------------------------------------
    def push64(self, value: int) -> None:
        self.regs.rsp = (self.regs.rsp - 8) & MASK64
        self.mem.write_u64(self.regs.rsp, value)

    def pop64(self) -> int:
        value = self.mem.read_u64(self.regs.rsp)
        self.regs.rsp = (self.regs.rsp + 8) & MASK64
        return value

    # ------------------------------------------------------------------
    # Fetch/decode
    # ------------------------------------------------------------------
    def _fetch_window(self, addr: int, size: int = MAX_INSTR_LEN) -> bytes:
        """Read up to ``size`` executable bytes starting at ``addr``."""
        try:
            window = self.mem.fetch(addr, size)
        except PageFault as exc:
            raise Trap(TrapKind.PAGE_FAULT, addr, exc.reason) from None
        return window

    def decode_at(self, addr: int) -> Instruction:
        window = self._fetch_window(addr)
        return decode(window, 0)

    # ------------------------------------------------------------------
    # Decode cache
    # ------------------------------------------------------------------
    def _cached_op(self, rip: int):
        """The pre-decoded op at ``rip``, or None on a cache miss."""
        cursor = self._cursor
        if cursor is not None:
            block, index = cursor
            if block.live and index < len(block.ops):
                op = block.ops[index]
                if op[0] == rip:
                    self._cursor = (block, index + 1)
                    self.icache_stats.hits += 1
                    return op
            self._cursor = None
        return self._enter_block(rip)

    def _enter_block(self, rip: int):
        """First op of the valid cached block at ``rip``, or None.

        Entering a block checks its page stamps, points the cursor at its
        second op, and feeds the trace profiler.
        """
        block = self._blocks.get(rip)
        if block is None:
            return None
        # Generation check: the code observer evicts eagerly, but a block
        # can also go stale without an observed store (e.g. this CPU was
        # attached after another mutated the text).  Stamps are the
        # ground truth; the observer is the fast path.
        generation_of = self.mem.page_generation_index
        for index, stamp in block.pages:
            if generation_of(index) != stamp:
                self._evict(block)
                self.icache_stats.invalidations += 1
                return None
        self._cursor = (block, 1)
        self.icache_stats.hits += 1
        tc = self._tracecache
        if tc is not None:
            tc.note_block(rip)
        return block.ops[0]

    def _fill_block(self, rip: int) -> _Block:
        """Cache the basic block starting at ``rip``.

        The ops come from :data:`SHARED_BLOCKS` when this address space
        holds the bytes an entry was decoded from, and from a fresh
        decode (:func:`_decode_block`) otherwise.  Either way the block
        is cut before the first native-stub address after ``rip`` and
        stamped with this CPU's page generations.  Raises
        :class:`InvalidOpcode` when the *first* instruction is
        undecodable (the caller delivers #UD) and :class:`Trap` when the
        fetch itself faults.
        """
        stats = self.icache_stats
        stats.misses += 1
        fetch = self._fetch_window
        ops = SHARED_BLOCKS.lookup(fetch, rip)
        if ops is None:
            ops = _decode_block(fetch, rip)
        else:
            stats.shared_hits += 1
        stubs = self.native_stubs
        if stubs:
            for index in range(1, len(ops)):
                if ops[index][0] in stubs:
                    ops = ops[:index]
                    break
        offset = ops[-1][3] - rip
        mem = self.mem
        first_page = rip >> PAGE_SHIFT
        last_page = (rip + offset - 1) >> PAGE_SHIFT
        # Stamping marks the pages as code: from now on stores to them
        # reach every CPU's code observer (:meth:`_invalidate_written`).
        pages = tuple(
            (index, mem.stamp_code_page(index))
            for index in range(first_page, last_page + 1)
        )
        block = _Block(rip, ops, pages)
        self._blocks[rip] = block
        for index, _ in pages:
            self._page_blocks.setdefault(index, set()).add(rip)
        probe = self.probe
        if probe is not None:
            # Decode is the moment text bytes are consumed; the exec
            # access synchronizes on the per-page generation channel.
            probe.fire(
                sites.CPU_EXEC, actor=self.actor, addr=rip, size=max(offset, 1)
            )
        return block

    def _evict(self, block: _Block) -> None:
        block.live = False
        self._blocks.pop(block.start, None)
        for index, _ in block.pages:
            starts = self._page_blocks.get(index)
            if starts is not None:
                starts.discard(block.start)
                if not starts:
                    del self._page_blocks[index]

    def _invalidate_written(self, addr: int, size: int) -> None:
        """Code-observer hook: drop blocks and traces decoded from
        written pages.  Memory calls it only for stores to code pages
        (any CPU's) and for permission changes."""
        tc = self._tracecache
        if tc is not None and (tc.traces or tc.failed):
            tc.invalidate_range(addr >> PAGE_SHIFT, (addr + size - 1) >> PAGE_SHIFT)
        page_blocks = self._page_blocks
        if not page_blocks:
            return
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for index in range(first, last + 1):
            starts = page_blocks.get(index)
            if not starts:
                continue
            for start in list(starts):
                block = self._blocks.get(start)
                if block is not None:
                    self._evict(block)
                    self.icache_stats.invalidations += 1

    def flush_icache(self) -> None:
        """Drop every cached block and trace (counters are preserved)."""
        for block in list(self._blocks.values()):
            block.live = False
        self._blocks.clear()
        self._page_blocks.clear()
        self._cursor = None
        if self._tracecache is not None:
            self._tracecache.flush()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (or one native stub)."""
        if self.halted:
            raise CpuHalted()
        rip = self.regs.rip
        stub = self.native_stubs.get(rip)
        if stub is not None:
            stub(self)
            self._charge()
            return
        if self.icache_enabled:
            op = self._cached_op(rip)
            if op is None:
                try:
                    block = self._fill_block(rip)
                except InvalidOpcode as exc:
                    self._deliver(
                        Trap(TrapKind.INVALID_OPCODE, rip, f"byte {exc.byte:#04x}")
                    )
                    self._charge()
                    return
                self._cursor = (block, 1)
                op = block.ops[0]
                tc = self._tracecache
                if tc is not None:
                    tc.note_block(rip)
            op[1](self, op[2], op[3])
            self._charge()
            return
        try:
            instr = self.decode_at(rip)
        except InvalidOpcode as exc:
            self._deliver(
                Trap(TrapKind.INVALID_OPCODE, rip, f"byte {exc.byte:#04x}")
            )
            self._charge()
            return
        self._execute(instr)
        self._charge()

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until halt; returns instructions retired in this call.

        Each iteration dispatches, in order: a compiled trace at RIP, a
        native stub, the next op of the current cached block, or the
        first op of a valid cached block.  Anything else (an icache miss,
        a #UD, the icache turned off) goes through :meth:`step`, so both
        paths retire, charge and count exactly the same.  This is the
        only dispatch point for compiled traces: ``step()`` keeps strict
        one-instruction granularity (``run_concurrent``'s quantum
        interleaving depends on it), while ``run`` may retire a whole
        superblock per iteration.  A trace entry that returns 0 (stale
        stamps, insufficient fuel) falls through to the interpreter, so
        forward progress is always made.
        """
        start = self.instructions_retired
        limit = start + max_instructions
        regs = self.regs
        stubs = self.native_stubs
        stats = self.icache_stats
        icache = self.icache_enabled
        tc = self._tracecache
        traces = tc.traces if tc is not None else {}
        ns = self.instruction_ns
        advance = self.clock.advance if self.clock is not None and ns else None
        while not self.halted:
            retired = self.instructions_retired
            if retired >= limit:
                raise RuntimeError(
                    f"instruction budget exhausted ({max_instructions})"
                )
            rip = regs.rip
            if rip in traces and tc.execute(self, rip, limit - retired):
                continue
            stub = stubs.get(rip)
            if stub is not None:
                stub(self)
            elif icache:
                op = None
                cursor = self._cursor
                if cursor is not None:
                    block, index = cursor
                    ops = block.ops
                    if block.live and index < len(ops) and ops[index][0] == rip:
                        op = ops[index]
                        self._cursor = (block, index + 1)
                        stats.hits += 1
                    else:
                        self._cursor = None
                if op is None:
                    op = self._enter_block(rip)
                    if op is None:
                        self.step()
                        continue
                op[1](self, op[2], op[3])
            else:
                self.step()
                continue
            self.instructions_retired += 1
            if advance is not None:
                advance(ns)
        return self.instructions_retired - start

    def _charge(self) -> None:
        self.instructions_retired += 1
        if self.clock is not None and self.instruction_ns:
            self.clock.advance(self.instruction_ns)

    def _deliver(self, trap: Trap) -> None:
        if self.trap_handler is None:
            raise trap
        self.trap_handler(self, trap)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def _execute(self, instr: Instruction) -> None:
        handler = HANDLERS.get(instr.mnemonic)
        if handler is None:  # pragma: no cover - HANDLERS covers the decoder
            raise NotImplementedError(f"no semantics for {instr.mnemonic}")
        handler(self, instr, self.regs.rip + instr.length)

    def _set_flags(self, result: int) -> None:
        self.regs.zf = result == 0
        self.regs.sf = to_signed64(result) < 0
