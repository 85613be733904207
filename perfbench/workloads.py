"""The four workloads: per-round setup, the timed op region, and checks.

A workload is built once from its seed (input generation and binary
assembly happen here and count toward ``setup_s``).  Each round then
sets up fresh state (``setup``: guest kernel, drivers, a newly booted
domain — icache, trace cache and ABOM patches start empty), runs the
timed op region (``run``) and returns a :class:`Round` with everything the
metrics and the correctness checks need.  Every round of one workload
replays the same generated inputs, so its simulated digest and its
counters must repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field

import gen
from repro.arch.cpu import CPU
from repro.core.abom import ABOM
from repro.core.engine import ExecutionEngine
from repro.core.xcontainer import XContainer
from repro.core.xkernel import XKernel
from repro.core.xlibos import XLibOS
from repro.guest.ipvs import IPVS
from repro.guest.kernel import GuestKernel
from repro.perf.clock import SimClock
from repro.serve import autoscaler as serve_autoscaler
from repro.serve import domains as serve_domains
from repro.serve import engine as serve_engine
from repro.serve import sharding as serve_sharding
from repro.serve.report import run_serve
from repro.serve.scenario import get_scenario
from repro.xen.blkdev import SECTOR_SIZE, BlockStore, SplitBlockDriver
from repro.xen.drivers import SplitNetDriver
from repro.xen.events import EventChannelTable
from repro.xen.hypervisor import DomainKind, XenHypervisor
from spans import INHERIT, NEW_OP

perf_ns = time.perf_counter_ns


@dataclass
class Round:
    """One round's measurements (host ns) and simulated outputs."""

    ops: int
    op_ns: int
    boot_ns: list[int]
    instructions: int
    sim_ns_per_op: float
    digest: str
    #: Names of failed correctness checks.
    failures: list[str]
    #: Objects the per-layer metrics read counters from.
    state: dict = field(repr=False, default_factory=dict)
    #: Workload-specific simulated results (serve latency and errors).
    sim: dict = field(default_factory=dict)
    #: Host ns spent in the round's setup, and the host speed the round
    #: ran at (see ``hostspeed.py``); both filled in by the runner.
    setup_ns: int = 0
    host_speed: float = 1.0
    #: Per-layer host times and counts of a traced round.
    layer_times: dict | None = None
    layer_counts: dict | None = None


def _digest(summary) -> str:
    blob = json.dumps(summary, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _check(failures: list[str], ok: bool, name: str) -> None:
    if not ok:
        failures.append(name)


#: Layer entry points wrapped in every traced round.  Each entry is
#: ``(owner, attribute, span name[, op mode[, capture self]])``.
ARCH_CORE_WRAPS = [
    (CPU, "run", "arch.run"),
    (XKernel, "handle_trap", "core.trap", NEW_OP),
    (XLibOS, "lightweight_entry", "core.libos", NEW_OP),
    (XLibOS, "forwarded_entry", "core.libos"),
    (ABOM, "try_patch", "core.abom"),
    (XContainer, "__init__", "core.boot"),
    (GuestKernel, "invoke", "guest.syscall"),
]
XEN_WRAPS = [
    (SplitNetDriver, "transmit", "xen.net"),
    (SplitNetDriver, "transmit_batch", "xen.net"),
    (EventChannelTable, "send", "xen.event"),
    (SplitBlockDriver, "read", "xen.blk_read"),
    (SplitBlockDriver, "read_many", "xen.blk_read"),
    (SplitBlockDriver, "write", "xen.blk_write"),
    (SplitBlockDriver, "write_many", "xen.blk_write"),
]
SERVE_WRAPS = [
    (ExecutionEngine, "spawn", "core.spawn"),
    (ExecutionEngine, "run_until", "core.engine_run", INHERIT, True),
    (serve_engine.ServeEngine, "run", "serve.control"),
    (serve_sharding.SerialRunner, "run", "serve.runner", NEW_OP),
    (serve_sharding, "run_shard_interval", "serve.traffic"),
    (serve_domains.ServeDomainFleet, "ensure", "serve.exec_fleet"),
    (serve_domains.ServeDomainFleet, "retire", "serve.exec_fleet"),
    (serve_domains.ServeDomainFleet, "post_busy", "serve.exec_fleet"),
    (serve_domains.ServeDomainFleet, "run_until", "serve.exec_fleet"),
    (serve_autoscaler.Autoscaler, "decide", "serve.autoscale"),
    (IPVS, "schedule", "guest.ipvs"),
    (IPVS, "open_connection", "guest.ipvs"),
    (IPVS, "close_connection", "guest.ipvs"),
]


def _cpu_key(args):
    return id(args[0])


# ----------------------------------------------------------------------
# syscall
# ----------------------------------------------------------------------
class CheckedKernel(GuestKernel):
    """The real guest kernel, plus per-number call counts for the checks."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.per_nr: Counter = Counter()

    def invoke(self, nr: int, cpu) -> int:
        self.per_nr[nr] += 1
        return super().invoke(nr, cpu)


class SyscallWorkload:
    """Guest syscall loop on a freshly booted X-Container (op = syscall)."""

    name = "syscall"
    wraps = ARCH_CORE_WRAPS

    def __init__(self, seed: int) -> None:
        self.program = gen.syscall_program(seed)

    def setup(self):
        clock = SimClock()
        kernel = CheckedKernel(clock=clock)
        t0 = perf_ns()
        xc = XContainer(kernel, clock=clock)
        xc.load(self.program.binary)
        return {"clock": clock, "kernel": kernel, "xc": xc,
                "boot_ns": perf_ns() - t0}

    def run(self, state) -> Round:
        xc = state["xc"]
        t0 = perf_ns()
        result = xc.run_loaded(self.program.binary.entry)
        op_ns = perf_ns() - t0
        kernel = state["kernel"]
        libos = xc.libos_stats
        abom = xc.abom_stats
        sites = self.program.sites
        patchable = {s.addr for s in sites if s.style != "cancellable"}
        failures: list[str] = []
        _check(failures, dict(kernel.per_nr) == self.program.expected_counts(),
               "per-number syscall counts")
        _check(failures, libos.total_syscalls == self.program.syscalls
               == kernel.stats.syscalls, "lightweight + forwarded == total")
        _check(failures, abom.patched_sites == patchable
               and abom.total_patches == len(patchable),
               "each patchable site patched once, cancellable never")
        summary = {
            "per_nr": sorted(kernel.per_nr.items()),
            "libos": vars(libos),
            "abom": [abom.patches_7byte, abom.patches_9byte, abom.patches_go,
                     abom.unrecognized_sites, sorted(abom.patched_sites)],
            "instructions": result.instructions,
            "sim_ns": result.elapsed_ns,
            "rax": result.exit_rax,
        }
        return Round(
            ops=self.program.syscalls,
            op_ns=op_ns,
            boot_ns=[state["boot_ns"]],
            instructions=result.instructions,
            sim_ns_per_op=result.elapsed_ns / self.program.syscalls,
            digest=_digest(summary),
            failures=failures,
            state={"containers": [xc]},
        )


# ----------------------------------------------------------------------
# io
# ----------------------------------------------------------------------
class IoServices:
    """Serves the guest's read/write/send syscalls through Xen split drivers.

    ``%rdi`` selects the generated op.  Each read is compared with the
    shadow copy's prediction as it returns, so no read data is kept.
    """

    def __init__(self, ops, blk: SplitBlockDriver, net: SplitNetDriver,
                 expected_reads) -> None:
        self.ops = ops
        self.blk = blk
        self.net = net
        self.expected_reads = expected_reads
        self.reads = 0
        self.bad_reads = 0

    def _check_read(self, data) -> None:
        if data != self.expected_reads[self.reads]:
            self.bad_reads += 1
        self.reads += 1

    def invoke(self, nr: int, cpu) -> int:
        arg = self.ops[cpu.regs.read64(7)].arg
        if nr == gen.NR_READ:
            data = self.blk.read(*arg)
            self._check_read(data)
            return len(data)
        if nr == gen.NR_READV:
            data = self.blk.read_many(arg)
            self._check_read(data)
            return sum(len(d) for d in data)
        if nr == gen.NR_WRITE:
            self.blk.write(*arg)
            return len(arg[1])
        if nr == gen.NR_WRITEV:
            self.blk.write_many(arg)
            return sum(len(d) for _, d in arg)
        if nr == gen.NR_SENDTO:
            self.net.transmit(arg)
            return arg
        if nr == gen.NR_SENDMMSG:
            self.net.transmit_batch(arg)
            return len(arg)
        raise ValueError(f"io workload issued unexpected syscall {nr}")


def _replay_io(program: gen.IoProgram):
    """Expected read results, final disk and bytes sent, from a shadow disk."""
    shadow: dict[int, bytes] = {}
    zero = b"\x00" * SECTOR_SIZE
    reads = []
    sent = 0

    def read(sector, count):
        return b"".join(shadow.get(sector + i, zero) for i in range(count))

    def write(sector, data):
        for i in range(len(data) // SECTOR_SIZE):
            shadow[sector + i] = data[i * SECTOR_SIZE:(i + 1) * SECTOR_SIZE]

    for _ in range(program.iterations):
        for op in program.ops:
            if op.nr == gen.NR_READ:
                reads.append(read(*op.arg))
            elif op.nr == gen.NR_READV:
                reads.append([read(*extent) for extent in op.arg])
            elif op.nr == gen.NR_WRITE:
                write(*op.arg)
            elif op.nr == gen.NR_WRITEV:
                for extent in op.arg:
                    write(*extent)
            elif op.nr == gen.NR_SENDTO:
                sent += op.arg
            else:
                sent += sum(op.arg)
    disk = [shadow.get(s, zero) for s in range(gen.DISK_SECTORS)]
    return reads, disk, sent


class IoWorkload:
    """Guest I/O syscalls served through Xen rings (op = I/O syscall)."""

    name = "io"
    wraps = ARCH_CORE_WRAPS + XEN_WRAPS

    def __init__(self, seed: int) -> None:
        self.program = gen.io_program(seed)
        self.expected_reads, self.expected_disk, self.expected_sent = (
            _replay_io(self.program)
        )

    def setup(self):
        clock = SimClock()
        xen = XenHypervisor(clock=clock)
        guest = xen.create_domain("io-xc")
        backend = xen.create_domain("driver", DomainKind.DRIVER)
        events = EventChannelTable(xen.costs, clock)
        net = SplitNetDriver(guest, backend, xen.grants, events, xen.costs, clock)
        store = BlockStore(gen.DISK_SECTORS)
        blk = SplitBlockDriver(store, xen.costs, clock)
        services = IoServices(self.program.ops, blk, net, self.expected_reads)
        t0 = perf_ns()
        xc = XContainer(services, costs=xen.costs, clock=clock)
        xc.load(self.program.binary)
        return {"clock": clock, "xc": xc, "services": services, "net": net,
                "blk": blk, "store": store, "boot_ns": perf_ns() - t0}

    def run(self, state) -> Round:
        xc = state["xc"]
        t0 = perf_ns()
        result = xc.run_loaded(self.program.binary.entry)
        op_ns = perf_ns() - t0
        services, net, blk, store = (
            state["services"], state["net"], state["blk"], state["store"]
        )
        disk = [store.read_sector(s) for s in range(gen.DISK_SECTORS)]
        failures: list[str] = []
        _check(failures, services.bad_reads == 0
               and services.reads == len(self.expected_reads),
               "block reads return the last write")
        _check(failures, disk == self.expected_disk, "disk matches shadow copy")
        _check(failures, net.stats.bytes_moved == self.expected_sent,
               "net bytes_moved == bytes sent")
        _check(failures, xc.libos_stats.total_syscalls == self.program.syscalls,
               "lightweight + forwarded == total")
        summary = {
            "libos": vars(xc.libos_stats),
            "patched": sorted(xc.abom_stats.patched_sites),
            "net": net.stats.as_dict(),
            "blk": blk.stats.as_dict(),
            "disk": hashlib.sha256(b"".join(disk)).hexdigest(),
            "instructions": result.instructions,
            "sim_ns": result.elapsed_ns,
        }
        return Round(
            ops=self.program.syscalls,
            op_ns=op_ns,
            boot_ns=[state["boot_ns"]],
            instructions=result.instructions,
            sim_ns_per_op=result.elapsed_ns / self.program.syscalls,
            digest=_digest(summary),
            failures=failures,
            state={"containers": [xc], "net": net, "blk": blk},
        )


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
class FleetWorkload:
    """Spawn N domains, post two wake waves, sweep (op = one domain)."""

    name = "fleet"
    # Op = domain: a wake burst joins its domain's op through its vCPU.
    wraps = [w for w in ARCH_CORE_WRAPS if w[0] is not CPU] + [
        (CPU, "run", "arch.run", _cpu_key),
        (ExecutionEngine, "spawn", "core.spawn", NEW_OP),
        (ExecutionEngine, "run_until", "core.engine_run"),
    ]

    def __init__(self, seed: int) -> None:
        self.plan = gen.fleet_plan(seed)

    def setup(self):
        engine = ExecutionEngine(hybrid=True, spin=gen.FLEET_SPIN)
        return {"engine": engine, "clock": engine.clock}

    def run(self, state) -> Round:
        engine = state["engine"]
        plan = self.plan
        boots = []
        t0 = perf_ns()
        for _ in range(plan.domains):
            b0 = perf_ns()
            engine.spawn()
            boots.append(perf_ns() - b0)
        for domid, units, at_ns in plan.posts:
            engine.post_work(domid, units, at_ns)
        engine.run_until(plan.ticks * engine.tick_ns)
        op_ns = perf_ns() - t0
        failures: list[str] = []
        _check(failures, engine.total_completed() == plan.units == engine.stats.units_posted,
               "total_completed == units posted")
        _check(failures, engine.n_parked == plan.domains, "every domain parked")
        snapshot = engine.snapshot()
        stats = engine.stats
        busy_ns = sum(d["clock_ns"] for d in snapshot["domains"]) - stats.fastforward_ns
        return Round(
            ops=plan.domains,
            op_ns=op_ns,
            boot_ns=boots,
            instructions=stats.instructions,
            sim_ns_per_op=busy_ns / plan.domains,
            digest=_digest(snapshot),
            failures=failures,
            state={"containers": [engine.domain(d).container
                                  for d in range(engine.n_domains)],
                   "engines": [engine]},
        )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServeWorkload:
    """``repro.serve`` on ``fleet-100`` with one worker (op = request)."""

    name = "serve"
    # Op = control interval, opened by each shard-runner pass.
    wraps = ARCH_CORE_WRAPS + SERVE_WRAPS

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        return {"scenario": get_scenario(gen.SERVE_SCENARIO)}

    def run(self, state) -> Round:
        boots: list[int] = []
        spawn = ExecutionEngine.__dict__["spawn"]

        def timed_spawn(*args, **kwargs):
            b0 = perf_ns()
            try:
                return spawn(*args, **kwargs)
            finally:
                boots.append(perf_ns() - b0)

        ExecutionEngine.spawn = timed_spawn
        try:
            t0 = perf_ns()
            report = run_serve(state["scenario"], seed=self.seed, workers=1)
            op_ns = perf_ns() - t0
        finally:
            ExecutionEngine.spawn = spawn
        r = report.result
        failures: list[str] = []
        _check(failures, r.conservation_ok, "ipvs conservation_ok")
        _check(failures, r.completed + r.errors == r.requests,
               "completed + errors == requests")
        summary = report.as_dict()
        duration_ns = r.scenario.duration_ms * 1e6
        return Round(
            ops=r.requests,
            op_ns=op_ns,
            boot_ns=boots,
            instructions=r.fleet_exec["guest_instructions"],
            sim_ns_per_op=duration_ns / r.completed,
            digest=_digest(summary),
            failures=failures,
            state={"result": r},
            sim={
                "sim_rps": r.simulated_rps,
                "sim_p50_ms": r.p50_ms,
                "sim_p99_ms": r.p99_ms,
                "sim_error_rate": r.errors / r.requests,
            },
        )


WORKLOADS = {
    w.name: w
    for w in (SyscallWorkload, IoWorkload, FleetWorkload, ServeWorkload)
}
