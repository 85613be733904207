"""Benchmark harness configuration.

Every figure benchmark regenerates one of the paper's tables/figures and
prints it, so ``pytest benchmarks/ --benchmark-only -s`` reproduces the
whole evaluation section.  Experiments are deterministic simulations; each
is run once per benchmark round.

The library benchmarks additionally record their throughput (ops/sec) and
decode-cache hit rates via the ``record_rate`` fixture; at session end the
collected numbers are merged into ``BENCH_interpreter.json`` at the repo
root (rows this session did not run are kept), next to the frozen
pre-cache seed baseline, so before/after is one file diff.
"""

import json
from pathlib import Path

import pytest

from repro.perf.benchfile import merge_bench

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_JSON = _REPO_ROOT / "BENCH_interpreter.json"

#: Library-benchmark results collected this session, keyed by test name.
_RESULTS: dict[str, dict] = {}

#: Numbers measured at the pre-decode-cache seed (commit 6c3bbca), same
#: machine class as CI: the "before" column for every later run.
SEED_BASELINE = {
    "test_interpreter_instruction_rate": {
        "mean_s": 0.10776,
        "ops_per_round": 6002,
        "ops_per_sec": 55_697,
    },
    "test_syscall_dispatch_rate": {
        "mean_s": 0.03556,
        "ops_per_round": 500,
        "ops_per_sec": 14_061,
    },
    "test_abom_patch_rate": {
        "mean_s": 0.001216,
        "ops_per_round": 100,
        "ops_per_sec": 82_237,
    },
    "test_functional_http_request_rate": {
        "mean_s": 3.86e-05,
        "ops_per_round": 1,
        "ops_per_sec": 25_907,
    },
    # These benchmarks postdate the seed freeze, so no "before" number
    # exists; the explicit null keeps speedup coverage aligned with the
    # results section instead of silently omitting them.
    "test_e2e_http_throughput": None,
    "test_ring_batch_ablation": None,
    "test_serve_fleet_request_rate": None,
    "test_fleet_scale_1000": None,
    "test_container_boot_rate": None,
}


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer and return its
    result (the experiments are deterministic; repeated rounds only
    re-measure harness time)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(fn):
        return run_once(benchmark, fn)

    return runner


def _mean_seconds(benchmark):
    """Best-effort mean round time; None under --benchmark-disable."""
    for probe in ("stats.stats.mean", "stats.mean"):
        obj = benchmark
        try:
            for attr in probe.split("."):
                obj = getattr(obj, attr)
            return float(obj)
        except (AttributeError, TypeError, ValueError):
            continue
    return None


@pytest.fixture
def record_rate(request):
    """Record a library benchmark's throughput for BENCH_interpreter.json.

    ``record_rate(benchmark, ops_per_round, icache=...)`` — call after the
    timed run; ops/sec is derived from the benchmark's mean round time.
    """

    def record(benchmark, ops_per_round, **extra):
        mean = _mean_seconds(benchmark)
        entry = {
            "mean_s": mean,
            "ops_per_round": ops_per_round,
            "ops_per_sec": round(ops_per_round / mean) if mean else None,
        }
        entry.update(extra)
        _RESULTS[request.node.name] = entry

    return record


def pytest_sessionfinish(session, exitstatus):
    if not _RESULTS:
        return
    previous = None
    if _BENCH_JSON.exists():
        try:
            previous = json.loads(_BENCH_JSON.read_text())
        except (ValueError, OSError):
            previous = None
    # Merge, never replace: a partial run keeps every row it did not run.
    payload = merge_bench(previous, _RESULTS, SEED_BASELINE)
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
