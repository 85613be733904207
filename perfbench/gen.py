"""Seeded input generators for the four benchmark workloads.

Every generator takes the seed as its only source of variation and
returns plain data (a machine-code binary plus the tables the benchmark's
own adapters read).  The program under test only ever sees these
generated inputs.

Mixes are drawn *stratified*: the seed decides which site gets which
shape, number, width or compute length and jitters each draw inside its
stratum, while the totals stay close to fixed.  That keeps the
modelled cost per op within a few per cent across seeds, so a change
that moves a metric by more than its bound shows against seed noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.arch import Assembler, Reg
from repro.arch.binary import Binary
from repro.xen.blkdev import SECTOR_SIZE

#: Fig-2 syscall-site shapes in the ``syscall`` loop, with the number of
#: sites of each.  ``cancellable`` is never patched by ABOM, so every one
#: of its executions is a forwarded trap.
SYSCALL_STYLES = {"mov_eax": 16, "mov_rax": 12, "go_stack": 12, "cancellable": 8}
#: getpid, getuid, then four numbers the guest kernel serves as
#: accounted no-ops (sched_yield, gettimeofday, gettid, time).
SYSCALL_NRS = (39, 102, 24, 96, 186, 201)
SYSCALL_ITERATIONS = 40
#: Compute run between two sites: a ``dec``/``jne`` loop of this many turns.
COMPUTE_RANGE = (4, 16)

#: The I/O syscall numbers the benchmark's services adapter serves.
NR_READ, NR_WRITE, NR_READV, NR_WRITEV, NR_SENDTO, NR_SENDMMSG = (
    0, 1, 19, 20, 44, 307
)
IO_SITES = 96
IO_ITERATIONS = 12
#: Base read/write/send shares; the seed moves each by up to IO_JITTER.
IO_SHARES = {"read": 0.40, "write": 0.35, "send": 0.25}
IO_JITTER = 0.02
#: Descriptors per vectored call.
VECTOR_RANGE = (8, 32)
#: Sectors per block descriptor, and the disk the descriptors address.
EXTENT_RANGE = (1, 4)
DISK_SECTORS = 512
#: Payload bytes per net descriptor.
SEND_RANGE = (64, 1500)
#: The ``io`` loop keeps its compute runs short so the rings dominate.
IO_COMPUTE_RANGE = (1, 4)

#: Domains per fleet round and the sweep the waves land in.
FLEET_DOMAINS = 128
FLEET_SPIN = 8
FLEET_TICKS = 30_000
FLEET_WAVE_SHARE = 0.4
FLEET_UNITS = (1, 3)

#: The ``repro.serve`` catalog scenario the ``serve`` workload runs.
SERVE_SCENARIO = "fleet-100"


def _stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` integers in ``[lo, hi]``, one per equal-width stratum, shuffled.

    Up to three values below ``hi`` are then raised by one, so the sum
    moves a little with the seed but stays within a few of
    ``n * (lo + hi) / 2``.
    """
    span = hi - lo + 1
    values = [lo + int(span * (i + rng.random()) / n) for i in range(n)]
    for _ in range(rng.randrange(4)):
        i = rng.randrange(n)
        values[i] = min(hi, values[i] + 1)
    rng.shuffle(values)
    return values


def _balanced(rng: random.Random, items, n: int) -> list:
    """``n`` picks cycling through ``items`` evenly, in seeded order."""
    picks = [items[i % len(items)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _compute_run(asm: Assembler, label: str, turns: int) -> None:
    asm.mov_imm32(Reg.RCX, turns)
    asm.label(label)
    asm.dec(Reg.RCX)
    asm.jne(label)


def _close_loop(asm: Assembler, iterations_reg: Reg = Reg.RBX) -> None:
    # ``jne`` is rel8 only, so the back edge to a long body is a rel32 jmp.
    asm.dec(iterations_reg)
    asm.je("done")
    asm.jmp("loop")
    asm.label("done")
    asm.hlt()


@dataclass(frozen=True)
class SyscallSiteSpec:
    style: str
    nr: int
    addr: int


@dataclass(frozen=True)
class SyscallProgram:
    binary: Binary
    sites: tuple[SyscallSiteSpec, ...]
    iterations: int

    def expected_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for site in self.sites:
            counts[site.nr] = counts.get(site.nr, 0) + self.iterations
        return counts

    @property
    def syscalls(self) -> int:
        return len(self.sites) * self.iterations


def syscall_program(seed: int) -> SyscallProgram:
    """The ``syscall`` loop: shaped sites with compute runs between them."""
    rng = random.Random(f"syscall:{seed}")
    n = sum(SYSCALL_STYLES.values())
    styles = [s for s, count in SYSCALL_STYLES.items() for _ in range(count)]
    rng.shuffle(styles)
    nrs = _balanced(rng, SYSCALL_NRS, n)
    turns = _stratified(rng, n, *COMPUTE_RANGE)
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, SYSCALL_ITERATIONS)
    asm.label("loop")
    sites = []
    for i, (style, nr) in enumerate(zip(styles, nrs)):
        if style == "go_stack":
            # The Go runtime shape loads the number from 8(%rsp).
            asm.mov_imm32(Reg.RCX, nr)
            asm.store_rsp64(8, Reg.RCX)
        site = asm.syscall_site(nr, style=style)
        sites.append(SyscallSiteSpec(style, nr, site.syscall_addr))
        _compute_run(asm, f"c{i}", turns[i])
    _close_loop(asm)
    return SyscallProgram(
        asm.build(f"syscall-{seed}"), tuple(sites), SYSCALL_ITERATIONS
    )


@dataclass(frozen=True)
class IoOp:
    """One I/O site: its syscall number and the adapter's argument.

    ``arg`` is ``(sector, count)`` for ``read``, ``((sector, count), ...)``
    for ``readv``, ``(sector, data)`` for ``write``, a tuple of those for
    ``writev``, a byte count for ``sendto`` and a tuple of byte counts for
    ``sendmmsg``.
    """

    nr: int
    arg: object


@dataclass(frozen=True)
class IoProgram:
    binary: Binary
    ops: tuple[IoOp, ...]
    iterations: int

    @property
    def syscalls(self) -> int:
        return len(self.ops) * self.iterations


def _io_ops(rng: random.Random, kind: str, sites: int) -> list[IoOp]:
    """``sites`` ops of one kind; two thirds vectored.

    Widths are stratified over the kind's vectored sites and payload
    sizes over all of its descriptors, so the kind's total descriptors
    and bytes barely move with the seed.
    """
    vectored = _balanced(rng, (False, True, True), sites)
    widths = iter(_stratified(rng, sum(vectored), *VECTOR_RANGE))
    shape = [next(widths) if v else 1 for v in vectored]
    size_range = SEND_RANGE if kind == "send" else EXTENT_RANGE
    sizes = iter(_stratified(rng, sum(shape), *size_range))
    single, batched = {
        "read": (NR_READ, NR_READV),
        "write": (NR_WRITE, NR_WRITEV),
        "send": (NR_SENDTO, NR_SENDMMSG),
    }[kind]
    ops = []
    for is_vec, width in zip(vectored, shape):
        descs = []
        for _ in range(width):
            size = next(sizes)
            if kind == "send":
                descs.append(size)
                continue
            sector = rng.randrange(DISK_SECTORS - size)
            if kind == "read":
                descs.append((sector, size))
            else:
                descs.append((sector, rng.randbytes(size * SECTOR_SIZE)))
        ops.append(IoOp(batched, tuple(descs)) if is_vec else IoOp(single, descs[0]))
    return ops


def io_program(seed: int) -> IoProgram:
    """The ``io`` loop: read/write/send sites, single and vectored."""
    rng = random.Random(f"io:{seed}")
    shares = {k: v + rng.uniform(-IO_JITTER, IO_JITTER) for k, v in IO_SHARES.items()}
    total = sum(shares.values())
    counts = {k: round(IO_SITES * v / total) for k, v in shares.items()}
    counts["send"] = IO_SITES - counts["read"] - counts["write"]
    ops = [op for kind, n in counts.items() for op in _io_ops(rng, kind, n)]
    rng.shuffle(ops)
    styles = _balanced(rng, ("mov_eax", "mov_rax"), len(ops))
    turns = _stratified(rng, len(ops), *IO_COMPUTE_RANGE)
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, IO_ITERATIONS)
    asm.label("loop")
    for i, op in enumerate(ops):
        asm.mov_imm32(Reg.RDI, i)
        asm.syscall_site(op.nr, style=styles[i])
        _compute_run(asm, f"c{i}", turns[i])
    _close_loop(asm)
    return IoProgram(asm.build(f"io-{seed}"), tuple(ops), IO_ITERATIONS)


@dataclass(frozen=True)
class FleetPlan:
    """Two sparse wake waves over ``domains`` parked domains.

    ``posts`` holds ``(domid, units, at_ns)`` in posting order.
    """

    domains: int
    ticks: int
    posts: tuple[tuple[int, int, float], ...]

    @property
    def units(self) -> int:
        return sum(units for _, units, _ in self.posts)


def fleet_plan(seed: int) -> FleetPlan:
    rng = random.Random(f"fleet:{seed}")
    n = FLEET_DOMAINS
    per_wave = int(n * FLEET_WAVE_SHARE)
    posts = []
    for wave in range(2):
        targets = sorted(rng.sample(range(n), per_wave))
        units = _stratified(rng, per_wave, *FLEET_UNITS)
        base_tick = (wave + 1) * FLEET_TICKS // 3
        for domid, u in zip(targets, units):
            tick = base_tick + rng.randrange(FLEET_TICKS // 6)
            posts.append((domid, u, tick * 1e6))
    return FleetPlan(n, FLEET_TICKS, tuple(posts))
