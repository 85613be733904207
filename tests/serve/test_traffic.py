"""The traffic generator: arrival statistics and shard purity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.rand import DeterministicRng
from repro.serve.traffic import (
    SERVE_LATENCY_BUCKETS_NS,
    ShardConfig,
    ShardSnapshot,
    heavy_tail_factor,
    initial_shard_state,
    mix_tables,
    run_shard_interval,
)


def make_config(**overrides):
    defaults = dict(
        seed="test",
        shards=2,
        rate_rps=2000.0,
        tail_alpha=1.6,
        churn_p=1.0 / 24.0,
        mix_cum_weights=(0.7, 0.95, 1.0),
        mix_work=(0.6, 1.0, 4.0),
        backend_service_ns=1_200_000.0,
        director_service_ns=15_000.0,
        conn_setup_ns=80_000.0,
        retry_penalty_ns=2_000_000.0,
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


def make_snapshot(**overrides):
    defaults = dict(
        interval_idx=0,
        t0_ns=0.0,
        t1_ns=100e6,
        dead=frozenset(),
        loss_p=0.0,
        share_by_backend=(),
    )
    defaults.update(overrides)
    return ShardSnapshot(**defaults)


class TestHeavyTail:
    def test_factor_is_mean_one(self):
        # alpha=3 keeps the variance finite so the sample mean settles.
        rng = DeterministicRng("tail-mean")
        n = 50_000
        mean = sum(heavy_tail_factor(rng, 3.0) for _ in range(n)) / n
        assert abs(mean - 1.0) < 0.05

    def test_factor_lower_bound(self):
        # Pareto support starts at (alpha-1)/alpha.
        rng = DeterministicRng("tail-floor")
        alpha = 1.6
        floor = (alpha - 1.0) / alpha
        assert all(
            heavy_tail_factor(rng, alpha) >= floor for _ in range(2000)
        )


class TestMixTables:
    def test_cumulative_weights_close_at_one(self):
        cum, work = mix_tables(((0.7, 0.6), (0.25, 1.0), (0.05, 4.0)))
        assert cum[-1] == 1.0
        assert len(cum) == len(work) == 3
        assert work == (0.6, 1.0, 4.0)

    def test_weights_are_normalized(self):
        cum, _ = mix_tables(((7.0, 1.0), (3.0, 2.0)))
        assert abs(cum[0] - 0.7) < 1e-12
        assert cum[1] == 1.0


class TestShardInterval:
    def test_same_inputs_same_outputs(self):
        cfg = make_config()
        snap = make_snapshot()
        r1, s1 = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1, 2, 3]), snap
        )
        r2, s2 = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1, 2, 3]), snap
        )
        assert r1 == r2
        assert s1 == s2

    def test_streams_differ_across_shards_and_intervals(self):
        cfg = make_config()
        base, _ = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1]), make_snapshot()
        )
        other_shard, _ = run_shard_interval(
            cfg, 1, initial_shard_state([0, 1]), make_snapshot()
        )
        other_iv, _ = run_shard_interval(
            cfg,
            0,
            initial_shard_state([0, 1]),
            make_snapshot(interval_idx=1, t0_ns=100e6, t1_ns=200e6),
        )
        assert base.arrivals != other_shard.arrivals or (
            base.lat_sum != other_shard.lat_sum
        )
        assert base.lat_sum != other_iv.lat_sum

    def test_dead_backend_errors_every_request(self):
        cfg = make_config()
        result, _ = run_shard_interval(
            cfg,
            0,
            initial_shard_state([7, 7, 7, 7]),
            make_snapshot(dead=frozenset({7})),
        )
        assert result.arrivals > 0
        assert result.errors == result.arrivals
        assert result.completed == 0

    def test_total_loss_retransmits_every_request(self):
        cfg = make_config()
        result, _ = run_shard_interval(
            cfg,
            0,
            initial_shard_state([0, 1]),
            make_snapshot(loss_p=0.999999),
        )
        assert result.completed > 0
        assert result.retransmits == result.completed

    def test_latency_counts_match_completions(self):
        cfg = make_config()
        result, _ = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1, 2]), make_snapshot()
        )
        assert sum(result.lat_bucket_counts) == result.completed
        assert result.lat_count == result.completed
        assert result.lat_sum > 0

    def test_fresh_slots_cleared_after_first_use(self):
        cfg = make_config()
        _, state = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1]), make_snapshot()
        )
        assert state.fresh == [False, False]

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            run_shard_interval(
                make_config(rate_rps=0.0), 0, initial_shard_state([0]),
                make_snapshot(),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        shard=st.integers(0, 7),
        interval=st.integers(0, 50),
        n_conns=st.sampled_from([1, 2, 3, 8, 24, 100, 256]),
    )
    def test_draws_match_the_rng_helpers(self, shard, interval, n_conns):
        """The loop's inlined draws are the helpers' draws: replaying
        the stream through ``expovariate``, :func:`heavy_tail_factor`,
        ``randint`` and ``random`` yields the same arrivals and the same
        churned slots."""
        cfg = make_config(rate_rps=400.0)
        snap = make_snapshot(interval_idx=interval, t1_ns=50e6)
        result, _ = run_shard_interval(
            cfg, shard, initial_shard_state(list(range(n_conns))), snap
        )
        rng = DeterministicRng(f"{cfg.seed}:shard{shard}:iv{interval}")
        t = snap.t0_ns
        arrivals = 0
        churned = set()
        while True:
            gap = rng.expovariate(cfg.rate_rps) * heavy_tail_factor(
                rng, cfg.tail_alpha
            )
            t += gap * 1e9
            if t >= snap.t1_ns:
                break
            arrivals += 1
            slot = rng.randint(0, n_conns - 1)
            rng.random()  # request class
            if slot not in churned and rng.random() < cfg.churn_p:
                churned.add(slot)
        assert result.arrivals == arrivals
        assert result.churned_slots == tuple(sorted(churned))

    def test_buckets_cover_subsecond_latencies(self):
        assert SERVE_LATENCY_BUCKETS_NS[0] == 50_000.0
        assert SERVE_LATENCY_BUCKETS_NS[-1] > 1e9
        edges = list(SERVE_LATENCY_BUCKETS_NS)
        assert edges == sorted(edges)
