"""Remus-style fault tolerance (§3.3's "fault tolerance").

High-frequency checkpoint replication: the primary's dirty state is
shipped to a backup every epoch, and *outbound network output is buffered
until the epoch that produced it is durably replicated* — the invariant
that makes failover externally transparent.

The model runs epochs over a workload description (dirty pages and output
packets per epoch) and accounts replication bandwidth, added output
latency, and failover position.  Backup acknowledgements are injectable
(:data:`repro.faults.sites.REMUS_ACK`): a lost ack keeps the epoch's
output buffered — it is *never* released — until a later epoch's ack
covers it, and a failover with uncommitted epochs discards exactly the
unreleased output (clients never saw it, so the backup's re-execution
from the last acknowledged epoch is externally consistent).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.memory import PAGE_SIZE
from repro.faults import sites


class FailoverError(RuntimeError):
    pass


@dataclass
class Epoch:
    index: int
    dirty_pages: int
    output_packets: int


@dataclass
class ReplicationStats:
    epochs: int = 0
    pages_shipped: int = 0
    packets_released: int = 0
    packets_buffered_peak: int = 0
    acks_lost: int = 0
    packets_discarded: int = 0


class RemusReplicator:
    """Primary-side epoch engine with output commit."""

    def __init__(
        self,
        epoch_ms: float = 25.0,
        bandwidth_mbps: float = 10000.0,
        probe=None,
    ) -> None:
        if epoch_ms <= 0:
            raise ValueError(f"epoch must be positive: {epoch_ms}")
        self.epoch_ms = epoch_ms
        self.bandwidth_pages_per_epoch = (
            bandwidth_mbps * 1e6 / 8.0 * (epoch_ms / 1e3) / PAGE_SIZE
        )
        #: Optional :class:`repro.obs.probe.Probe`.
        self.probe = probe
        self.stats = ReplicationStats()
        #: Output buffered per epoch: ``(epoch_index, packets)``, oldest
        #: first; an entry leaves the buffer only when its epoch (or a
        #: later one) is acknowledged, or when failover discards it.
        self._buffered_output: list[tuple[int, int]] = []
        #: Epoch index the backup has durably applied.
        self.backup_epoch = -1
        self._failed = False
        self._packets_produced = 0

    # ------------------------------------------------------------------
    # Epoch processing
    # ------------------------------------------------------------------
    def run_epoch(self, epoch: Epoch) -> float:
        """Replicate one epoch; returns the added output latency (ms) for
        packets produced in it.

        If the backup's acknowledgement is lost (injected), the epoch's
        output stays buffered and :attr:`backup_epoch` does not advance;
        the next acknowledged epoch releases everything up to itself.
        """
        if self._failed:
            raise FailoverError("primary already failed")
        if epoch.dirty_pages < 0 or epoch.output_packets < 0:
            raise ValueError("negative epoch accounting")
        self._buffered_output.append((epoch.index, epoch.output_packets))
        self._packets_produced += epoch.output_packets
        self.stats.packets_buffered_peak = max(
            self.stats.packets_buffered_peak,
            self.buffered_packets,
        )
        # Ship the dirty set; may take multiple epoch-lengths if large.
        ship_epochs = max(
            1.0, epoch.dirty_pages / self.bandwidth_pages_per_epoch
        )
        self.stats.epochs += 1
        self.stats.pages_shipped += epoch.dirty_pages
        acked = True
        if self.probe is not None:
            fault = self.probe.fire(sites.REMUS_ACK, epoch=epoch.index)
            if fault is not None and fault.kind == "fail":
                acked = False
                self.stats.acks_lost += 1
                self.probe.fire(
                    sites.RETRIED, site=sites.REMUS_ACK, epoch=epoch.index
                )
        if acked:
            was_lagging = len(self._buffered_output) > 1
            self.backup_epoch = epoch.index
            released = 0
            while (
                self._buffered_output
                and self._buffered_output[0][0] <= epoch.index
            ):
                released += self._buffered_output.pop(0)[1]
            self.stats.packets_released += released
            if was_lagging and self.probe is not None:
                # This ack also committed previously-unacked epochs.
                self.probe.fire(
                    sites.RECOVERED, site=sites.REMUS_ACK, epoch=epoch.index
                )
        # Output latency: buffered for the replication time of its epoch
        # (an unacknowledged epoch waits at least one more epoch-length).
        latency_epochs = ship_epochs if acked else ship_epochs + 1.0
        return latency_epochs * self.epoch_ms

    @property
    def buffered_packets(self) -> int:
        return sum(packets for _, packets in self._buffered_output)

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------
    def fail_primary(self) -> int:
        """Kill the primary; returns the epoch the backup resumes from.

        Buffered (unreleased) output is discarded — clients never saw it,
        so the backup's re-execution is externally consistent.  Discarded
        packets are *never* counted as released.
        """
        if self.backup_epoch < 0:
            raise FailoverError("backup never received a checkpoint")
        self._failed = True
        discarded = self.buffered_packets
        self.stats.packets_discarded += discarded
        self._buffered_output.clear()
        return self.backup_epoch

    def output_commit_invariant(self) -> bool:
        """No packet escapes before its epoch is replicated.

        Holds exactly when (a) nothing buffered belongs to an epoch the
        backup already acknowledged, and (b) every packet ever produced is
        accounted for as released, still buffered, or discarded at
        failover.
        """
        if any(
            index <= self.backup_epoch for index, _ in self._buffered_output
        ):
            return False
        accounted = (
            self.stats.packets_released
            + self.buffered_packets
            + self.stats.packets_discarded
        )
        return accounted == self._packets_produced
