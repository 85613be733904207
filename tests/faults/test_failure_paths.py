"""Regression tests for the Remus and migration failure paths.

Two bugs this subsystem's satellites fixed:

* failover with an uncommitted epoch must *discard* (never release)
  buffered output — releasing it would expose output whose state was
  lost with the primary;
* an aborted migration must leave the source domain runnable — the
  pre-fix code quiesced the source unconditionally.
"""

import pytest

from repro.faults import sites
from repro.faults.plan import Every, FaultPlan, FaultSpec, Nth
from repro.obs import Probe
from repro.xen.hypervisor import XenHypervisor
from repro.xen.migration import LiveMigration, MigrationSession
from repro.xen.remus import Epoch, FailoverError, RemusReplicator


def engine(*specs, seed=0):
    return FaultPlan(tuple(specs), seed).compile()


def probe(*specs, seed=0):
    return Probe(engine(*specs, seed=seed))


class TestRemusUncommittedEpoch:
    def test_lost_ack_keeps_output_buffered(self):
        remus = RemusReplicator(
            probe=probe(FaultSpec(sites.REMUS_ACK, "fail", Nth(2)))
        )
        remus.run_epoch(Epoch(0, 100, 10))
        remus.run_epoch(Epoch(1, 100, 20))  # ack lost
        assert remus.backup_epoch == 0
        assert remus.buffered_packets == 20
        assert remus.stats.packets_released == 10
        assert remus.output_commit_invariant()

    def test_later_ack_releases_everything_up_to_itself(self):
        eng = engine(FaultSpec(sites.REMUS_ACK, "fail", Nth(2)))
        remus = RemusReplicator(probe=Probe(eng))
        remus.run_epoch(Epoch(0, 100, 10))
        remus.run_epoch(Epoch(1, 100, 20))  # ack lost
        remus.run_epoch(Epoch(2, 100, 30))  # ack covers epochs 1 and 2
        assert remus.backup_epoch == 2
        assert remus.buffered_packets == 0
        assert remus.stats.packets_released == 60
        assert eng.counters[sites.REMUS_ACK].recovered == 1

    def test_failover_discards_uncommitted_never_releases(self):
        remus = RemusReplicator(
            probe=probe(FaultSpec(sites.REMUS_ACK, "fail", Nth(2)))
        )
        remus.run_epoch(Epoch(0, 100, 10))
        remus.run_epoch(Epoch(1, 100, 20))  # ack lost — uncommitted
        resume = remus.fail_primary()
        assert resume == 0
        assert remus.stats.packets_released == 10  # NOT 30
        assert remus.stats.packets_discarded == 20
        assert remus.buffered_packets == 0
        assert remus.output_commit_invariant()

    def test_failover_without_any_checkpoint_refuses(self):
        remus = RemusReplicator(
            probe=probe(FaultSpec(sites.REMUS_ACK, "fail", Every(1)))
        )
        remus.run_epoch(Epoch(0, 100, 10))  # never acked
        with pytest.raises(FailoverError):
            remus.fail_primary()
        # The refusal must not have mutated anything.
        assert remus.buffered_packets == 10
        assert remus.stats.packets_discarded == 0
        remus2 = RemusReplicator()
        with pytest.raises(FailoverError):
            remus2.fail_primary()
        remus2.run_epoch(Epoch(0, 1, 1))  # still alive after refusal

    def test_unacked_epoch_adds_output_latency(self):
        lossy = RemusReplicator(
            probe=probe(FaultSpec(sites.REMUS_ACK, "fail", Nth(1)))
        )
        clean = RemusReplicator()
        assert lossy.run_epoch(Epoch(0, 100, 10)) > clean.run_epoch(
            Epoch(0, 100, 10)
        )


class TestMigrationAbortLeavesSourceRunnable:
    def _session(self, probe=None, **kwargs):
        xen = XenHypervisor()
        domain = xen.create_domain("mig")
        defaults = dict(
            memory_mb=64,
            dirty_rate_pages_s=10_000,
            downtime_budget_ms=5.0,
            probe=probe,
        )
        defaults.update(kwargs)
        return domain, MigrationSession(domain, LiveMigration(**defaults))

    def test_injected_abort_keeps_source_running(self):
        domain, session = self._session(
            probe=probe(
                FaultSpec(sites.MIGRATION_ROUND, "abort", Nth(1))
            )
        )
        report = session.run()
        assert report.aborted and not report.converged
        assert report.downtime_ms == 0.0
        assert domain.running is True

    def test_non_convergence_abort_keeps_source_running(self):
        domain, session = self._session(
            dirty_rate_pages_s=10_000_000,
            abort_on_non_convergence=True,
        )
        report = session.run()
        assert report.aborted
        assert domain.running is True

    def test_converged_migration_hands_over(self):
        domain, session = self._session()
        report = session.run()
        assert report.converged and not report.aborted
        assert domain.running is False

    def test_forced_stop_and_copy_also_hands_over(self):
        domain, session = self._session(dirty_rate_pages_s=10_000_000)
        report = session.run()
        assert not report.converged and not report.aborted
        assert domain.running is False

    def test_migrating_a_stopped_domain_is_an_error(self):
        domain, session = self._session()
        domain.running = False
        with pytest.raises(ValueError, match="not running"):
            session.run()

    def test_dirty_bursts_extend_but_do_not_break_convergence(self):
        _, lossy = self._session(
            probe=probe(
                FaultSpec(
                    sites.MIGRATION_ROUND, "dirty", Every(1),
                    param=500.0, limit=3,
                )
            )
        )
        _, clean = self._session()
        lossy_report = lossy.run()
        clean_report = clean.run()
        assert lossy_report.converged
        assert lossy_report.pages_sent > clean_report.pages_sent
