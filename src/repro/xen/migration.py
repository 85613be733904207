"""Checkpoint/restore and live migration (§3.3).

    "there are many mature technologies in Xen's ecosystem enabling
     features such as live migration, fault tolerance, and
     checkpoint/restore, which are hard to implement with traditional
     containers."

Because an X-Container is a Xen domain, these come for free; this module
implements them over the simulated substrates:

* **checkpoint/restore** — serialize a domain's memory image and vCPU
  state, restore it into a fresh address space and continue execution
  (functionally real: a restored X-Container resumes mid-program);
* **live migration** — the classic pre-copy algorithm: iterative rounds
  of dirty-page transfer while the guest keeps running, then a brief
  stop-and-copy of the residual set.  The model tracks rounds, pages
  sent, total and downtime costs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.arch.memory import PagedMemory, PAGE_SIZE
from repro.faults import sites
from repro.perf.costs import CostModel


@dataclass
class Checkpoint:
    """A serialized domain: memory pages + architectural state."""

    name: str
    pages: dict[int, bytes]
    page_flags: dict[int, int]
    registers: dict[str, int]
    wp_enabled: bool

    @property
    def memory_bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE


def checkpoint_memory(memory: PagedMemory, registers: dict[str, int],
                      name: str = "ckpt") -> Checkpoint:
    """Snapshot a paged memory image plus register state."""
    pages = {
        index: bytes(page.data) for index, page in memory._pages.items()
    }
    flags = {
        index: int(page.flags) for index, page in memory._pages.items()
    }
    return Checkpoint(
        name=name,
        pages=pages,
        page_flags=flags,
        registers=dict(registers),
        wp_enabled=memory.wp_enabled,
    )


def restore_memory(checkpoint: Checkpoint) -> PagedMemory:
    """Materialize a fresh memory image from a checkpoint."""
    memory = PagedMemory()
    memory.restore_pages(checkpoint.pages, checkpoint.page_flags)
    memory.wp_enabled = checkpoint.wp_enabled
    return memory


@dataclass
class MigrationReport:
    rounds: int
    pages_sent: int
    downtime_ms: float
    total_ms: float
    converged: bool
    #: True when the migration gave up cleanly (injected abort or
    #: non-convergence with ``abort_on_non_convergence``); the source
    #: keeps running, nothing was handed over.
    aborted: bool = False


class LiveMigration:
    """Pre-copy live migration of one domain's memory.

    The guest's write activity is summarized by ``dirty_rate_pages_s`` —
    pages dirtied per second while migration runs.  Each round sends the
    currently-dirty set over a link of ``bandwidth_mbps``; migration
    converges when the residual dirty set is small enough to stop-and-copy
    within the downtime budget.
    """

    def __init__(
        self,
        memory_mb: int,
        dirty_rate_pages_s: float,
        bandwidth_mbps: float = 10000.0,
        max_rounds: int = 30,
        downtime_budget_ms: float = 300.0,
        costs: CostModel | None = None,
        probe=None,
        #: Abort instead of forcing an over-budget stop-and-copy when the
        #: guest dirties faster than the link sends.
        abort_on_non_convergence: bool = False,
    ) -> None:
        if memory_mb <= 0:
            raise ValueError(f"memory_mb must be positive: {memory_mb}")
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_mbps}")
        self.memory_pages = memory_mb * 1024 * 1024 // PAGE_SIZE
        self.dirty_rate_pages_s = dirty_rate_pages_s
        self.bandwidth_pages_s = (
            bandwidth_mbps * 1e6 / 8.0
        ) / PAGE_SIZE
        self.max_rounds = max_rounds
        self.downtime_budget_ms = downtime_budget_ms
        self.costs = costs or CostModel()
        #: Optional :class:`repro.obs.probe.Probe`.
        self.probe = probe
        self.abort_on_non_convergence = abort_on_non_convergence

    def _send_time_s(self, pages: float) -> float:
        return pages / self.bandwidth_pages_s

    def run(self) -> MigrationReport:
        """Execute the pre-copy rounds; returns the migration report."""
        to_send = float(self.memory_pages)
        total_s = 0.0
        pages_sent = 0.0
        rounds = 0
        budget_pages = (
            self.downtime_budget_ms / 1e3
        ) * self.bandwidth_pages_s
        injected = 0
        probe, site = self.probe, sites.MIGRATION_ROUND
        while rounds < self.max_rounds:
            rounds += 1
            send_s = self._send_time_s(to_send)
            total_s += send_s
            pages_sent += to_send
            # Pages dirtied during this round must be resent.
            dirtied = min(
                self.dirty_rate_pages_s * send_s, float(self.memory_pages)
            )
            if probe is not None:
                fault = probe.fire(site, round=rounds)
                if fault is not None:
                    if fault.kind == "abort":
                        # Clean abort: stop sending, nothing handed over.
                        probe.fire(sites.RECOVERED, site=site, round=rounds)
                        return MigrationReport(
                            rounds=rounds,
                            pages_sent=int(pages_sent),
                            downtime_ms=0.0,
                            total_ms=total_s * 1e3,
                            converged=False,
                            aborted=True,
                        )
                    if fault.kind == "dirty":
                        # A burst re-dirties extra pages this round.
                        injected += 1
                        extra = (
                            fault.param
                            if fault.param > 0
                            else self.memory_pages * 0.1
                        )
                        dirtied = min(
                            dirtied + extra, float(self.memory_pages)
                        )
                        probe.fire(sites.RETRIED, site=site, round=rounds)
            if dirtied <= budget_pages:
                # Stop-and-copy the residual set.
                downtime_s = self._send_time_s(dirtied)
                pages_sent += dirtied
                total_s += downtime_s
                if injected and probe is not None:
                    probe.fire(sites.RECOVERED, site=site, rounds=rounds)
                return MigrationReport(
                    rounds=rounds,
                    pages_sent=int(pages_sent),
                    downtime_ms=downtime_s * 1e3,
                    total_ms=total_s * 1e3,
                    converged=True,
                )
            if dirtied >= to_send and rounds > 1:
                # Not converging: the guest dirties faster than we send.
                break
            to_send = dirtied
        if self.abort_on_non_convergence:
            # Clean abort instead of blowing the downtime budget.
            if probe is not None:
                probe.fire(sites.RECOVERED, site=site, rounds=rounds)
            return MigrationReport(
                rounds=rounds,
                pages_sent=int(pages_sent),
                downtime_ms=0.0,
                total_ms=total_s * 1e3,
                converged=False,
                aborted=True,
            )
        # Forced stop-and-copy of whatever remains.
        downtime_s = self._send_time_s(to_send)
        pages_sent += to_send
        total_s += downtime_s
        return MigrationReport(
            rounds=rounds,
            pages_sent=int(pages_sent),
            downtime_ms=downtime_s * 1e3,
            total_ms=total_s * 1e3,
            converged=False,
        )


@dataclass
class MigrationSession:
    """Live migration of one concrete domain, with abort safety.

    Wraps :class:`LiveMigration` around a source
    :class:`~repro.xen.hypervisor.Domain`: on completion the source is
    stopped (ownership moved to the destination); on a clean abort the
    source is left **runnable** — an aborted migration must never strand
    the domain paused (§3.3 regression; see
    ``tests/faults/test_failure_paths.py``).
    """

    source: object
    migration: LiveMigration
    report: MigrationReport | None = field(default=None)

    def run(self) -> MigrationReport:
        if not getattr(self.source, "running", True):
            raise ValueError(
                f"source domain {self.source.name!r} is not running"
            )
        report = self.migration.run()
        if report.aborted:
            # The source was paused for what would have been the final
            # stop-and-copy; abort resumes it where it was.
            self.source.running = True
        else:
            # Converged (or forced stop-and-copy): the destination owns
            # the domain now; the source copy is quiesced.
            self.source.running = False
        self.report = report
        return report
