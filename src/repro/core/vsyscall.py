"""The vsyscall page and system-call entry table (§4.4).

    "X-LibOS stores a system call entry table in the vsyscall page, which is
     mapped to a fixed virtual memory address in every process."

The layout is inferred from Figure 2 of the paper:

* ``__read`` (syscall 0) calls through ``0xffffffffff600008`` and
  ``__restore_rt`` (syscall 15) through ``0xffffffffff600080`` — so the slot
  for syscall *n* lives at ``base + 8 * (n + 1)``;
* the Go ``syscall.Syscall`` site (number loaded from ``0x8(%rsp)``) calls
  through ``0xffffffffff600c08`` — a second, *dynamic* table at
  ``base + 0xc00`` indexed by the stack displacement, whose stubs load the
  syscall number from the stack at run time (shifted by 8 because the call
  pushed a return address).

The page sits at ``0xffffffffff600000`` precisely so every slot address fits
in a sign-extended 32-bit displacement, which is what makes the 7-byte
``callq *disp32`` replacement possible.

The table has the same contents in every process, so booting a container
costs a fixed amount: the table bytes are built once, at import, into
one image that :meth:`VsyscallPage.install` stores with a single
supervisor write, and the LibOS entry stubs are one module-level
``{stub address: stub}`` table that :meth:`VsyscallPage.attach` copies
onto each vCPU.  A stub reaches its LibOS through the one attribute
``attach`` records on the CPU (``cpu.libos_entry``), so the stubs hold
no reference to any container and none is built per boot.
"""

from __future__ import annotations

from typing import Callable

from repro.arch.cpu import CPU, NativeStub
from repro.arch.memory import PagedMemory, PageFlags

VSYSCALL_BASE = 0xFFFFFFFFFF600000
#: Offset of the dynamic (stack-sourced number) slot table.
DYNAMIC_TABLE_OFFSET = 0xC00
#: Highest syscall number with a static slot.
NUM_SYSCALLS = 384
#: Stack displacements (multiples of 8) with a dynamic slot.
DYNAMIC_DISPS = tuple(range(0, 0x80, 8))
#: Where the LibOS entry stubs live (arbitrary kernel-half addresses; they
#: are native stubs, never fetched as bytes).
STUB_BASE = 0xFFFFFFFFFF610000
STUB_STRIDE = 16


def has_static_slot(nr: int) -> bool:
    """Whether a site for syscall ``nr`` may be patched to its slot.

    The static slot of the last number, 383, is dynamic slot 0
    (``base + 0xc00``), which holds the Go stub.  So 383, like any
    number past the table, is never patched: it stays on the trap path.
    """
    return 0 <= nr < NUM_SYSCALLS and slot_addr(nr) < dynamic_slot_addr(0)


def slot_addr(nr: int) -> int:
    """Table slot for a statically-known syscall number."""
    if not 0 <= nr < NUM_SYSCALLS:
        raise ValueError(f"syscall number out of table range: {nr}")
    return VSYSCALL_BASE + 8 * (nr + 1)


def dynamic_slot_addr(disp: int) -> int:
    """Table slot for a Go-style site loading the number from rsp+disp."""
    if disp not in DYNAMIC_DISPS:
        raise ValueError(f"no dynamic slot for displacement {disp:#x}")
    return VSYSCALL_BASE + DYNAMIC_TABLE_OFFSET + disp


def stub_addr(nr: int) -> int:
    return STUB_BASE + nr * STUB_STRIDE


def dynamic_stub_addr(disp: int) -> int:
    return STUB_BASE + (NUM_SYSCALLS + disp // 8) * STUB_STRIDE


def _table_image() -> bytes:
    """The entry table's bytes from the first slot to the last.

    Static slots are laid down first and the dynamic table after it, so
    where the two overlap (static slot 383 is dynamic slot 0) the
    dynamic entry wins.
    """
    first = slot_addr(0)
    end = dynamic_slot_addr(DYNAMIC_DISPS[-1]) + 8
    image = bytearray(end - first)
    for nr in range(NUM_SYSCALLS):
        offset = slot_addr(nr) - first
        image[offset : offset + 8] = stub_addr(nr).to_bytes(8, "little")
    for disp in DYNAMIC_DISPS:
        offset = dynamic_slot_addr(disp) - first
        image[offset : offset + 8] = dynamic_stub_addr(disp).to_bytes(
            8, "little"
        )
    return bytes(image)


#: The entry table as installed into every process.
TABLE_IMAGE = _table_image()


def _static_stub(nr: int) -> NativeStub:
    def stub(cpu: CPU) -> None:
        cpu.libos_entry(cpu, nr)

    return stub


def _dynamic_stub(disp: int) -> NativeStub:
    def stub(cpu: CPU) -> None:
        nr = cpu.mem.read_u64(cpu.regs.rsp + disp + 8) & 0xFFFFFFFF
        cpu.libos_entry(cpu, nr)

    return stub


#: stub address -> LibOS entry stub, shared by every vCPU of every
#: container.
STUBS: dict[int, NativeStub] = {
    **{stub_addr(nr): _static_stub(nr) for nr in range(NUM_SYSCALLS)},
    **{dynamic_stub_addr(disp): _dynamic_stub(disp) for disp in DYNAMIC_DISPS},
}


class VsyscallPage:
    """Installs the entry table into memory and the stubs onto a CPU.

    ``entry_handler(cpu, nr)`` is the X-LibOS lightweight syscall entry: it
    is invoked with the resolved syscall number for static slots; dynamic
    stubs resolve the number from the stack first.
    """

    def __init__(self, memory: PagedMemory) -> None:
        self.memory = memory
        self._installed = False

    def install(self) -> None:
        """Map the page (kernel-half, GLOBAL, read-only) and fill the table."""
        self.memory.map_region(
            VSYSCALL_BASE,
            0x1000,
            PageFlags.USER | PageFlags.GLOBAL,
        )
        self.memory.wp_enabled = False
        try:
            self.memory.write(slot_addr(0), TABLE_IMAGE)
        finally:
            self.memory.wp_enabled = True
        # Installing the table is initialization, not patching: clear the
        # dirty bit the supervisor write set.
        self.memory.set_page_flags(
            VSYSCALL_BASE,
            self.memory.page_flags(VSYSCALL_BASE) & ~PageFlags.DIRTY,
        )
        self._installed = True

    def attach(
        self,
        cpu: CPU,
        entry_handler: Callable[[CPU, int], None],
    ) -> None:
        """Register the LibOS entry stubs on ``cpu``.

        Static stub *n* invokes ``entry_handler(cpu, n)``.  A dynamic stub
        for displacement ``d`` reads the number from ``(rsp + d + 8)`` —
        ``+8`` because the ``call`` has pushed the return address on top of
        what the original code indexed.
        """
        if not self._installed:
            raise RuntimeError("install() the vsyscall page before attach()")
        cpu.native_stubs.update(STUBS)
        cpu.libos_entry = entry_handler
