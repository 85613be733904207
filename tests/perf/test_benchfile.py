"""Merging benchmark sessions into BENCH_interpreter.json."""

from repro.perf.benchfile import merge_bench

SEED = {
    "test_a": {"mean_s": 1.0, "ops_per_round": 100, "ops_per_sec": 100},
    "test_b": {"mean_s": 1.0, "ops_per_round": 50, "ops_per_sec": 50},
    "test_new": None,
}


def _row(ops):
    return {"mean_s": 1.0, "ops_per_round": ops, "ops_per_sec": ops}


def test_fresh_file_holds_the_session():
    payload = merge_bench(None, {"test_a": _row(200)}, SEED)
    assert payload["results"] == {"test_a": _row(200)}
    assert payload["speedup_vs_seed"] == {"test_a": 2.0}
    assert payload["best_ops_per_sec"] == {"test_a": 200}
    assert payload["seed_baseline"] == SEED


def test_partial_session_keeps_earlier_rows():
    previous = merge_bench(None, {"test_a": _row(200), "test_b": _row(150)}, SEED)
    payload = merge_bench(previous, {"test_a": _row(300)}, SEED)
    assert payload["results"] == {"test_a": _row(300), "test_b": _row(150)}
    assert payload["speedup_vs_seed"] == {"test_a": 3.0, "test_b": 3.0}


def test_rows_without_a_seed_get_an_explicit_null():
    payload = merge_bench(None, {"test_new": _row(10), "test_x": _row(5)}, SEED)
    assert payload["speedup_vs_seed"] == {"test_new": None, "test_x": None}
    assert payload["seed_baseline"]["test_x"] is None


def test_best_is_a_high_water_mark():
    previous = merge_bench(None, {"test_a": _row(300)}, SEED)
    payload = merge_bench(previous, {"test_a": _row(250), "test_b": _row(60)}, SEED)
    assert payload["best_ops_per_sec"] == {"test_a": 300, "test_b": 60}
    assert payload["results"]["test_a"] == _row(250)


def test_inputs_are_not_mutated():
    previous = merge_bench(None, {"test_a": _row(200)}, SEED)
    snapshot = repr(previous)
    merge_bench(previous, {"test_b": _row(70)}, SEED)
    assert repr(previous) == snapshot
    assert SEED["test_a"]["ops_per_sec"] == 100


def test_malformed_previous_sections_are_ignored():
    previous = {"results": None, "best_ops_per_sec": {"test_a": "fast"}}
    payload = merge_bench(previous, {"test_b": _row(75)}, SEED)
    assert payload["results"] == {"test_b": _row(75)}
    assert payload["best_ops_per_sec"] == {"test_b": 75}
