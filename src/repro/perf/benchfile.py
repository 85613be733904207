"""Merging library-benchmark sessions into ``BENCH_interpreter.json``.

A pytest session may run only some of the library benchmarks.  Its rows
are merged into the file's earlier rows rather than replacing them, so a
partial run updates what it measured and keeps everything else.
:func:`merge_bench` is pure: ``benchmarks/conftest.py`` reads the old
file, calls it, and writes the result.
"""

from __future__ import annotations

from typing import Optional


def merge_bench(
    previous: Optional[dict],
    session: dict[str, dict],
    seed_baseline: dict[str, Optional[dict]],
) -> dict:
    """The new ``BENCH_interpreter.json`` payload.

    ``previous`` is the old payload (``None`` or ``{}`` when there is
    none); ``session`` maps benchmark name to this session's row;
    ``seed_baseline`` maps name to the frozen pre-cache row (``None``
    where no seed number exists).  Rows of ``session`` replace rows of
    the same name; every other earlier row is kept.  ``speedup_vs_seed``
    is recomputed for every kept row, and ``best_ops_per_sec`` keeps the
    best rate ever recorded per benchmark.
    """
    previous = previous or {}
    results = {
        name: entry
        for name, entry in (previous.get("results") or {}).items()
        if isinstance(entry, dict)
    }
    results.update(session)
    baseline = {
        name: dict(values) if values is not None else None
        for name, values in seed_baseline.items()
    }
    speedups: dict[str, Optional[float]] = {}
    for name, entry in results.items():
        baseline.setdefault(name, None)
        seed = baseline[name]
        if seed and entry.get("ops_per_sec"):
            speedups[name] = round(entry["ops_per_sec"] / seed["ops_per_sec"], 2)
        else:
            # Explicit null: every result row has a speedup entry, even
            # when there is no seed to compare against.
            speedups[name] = None
    # High-water marks for the regression gate (speedup_gate.py).
    best = {
        name: value
        for name, value in (previous.get("best_ops_per_sec") or {}).items()
        if isinstance(value, (int, float))
    }
    for name, entry in session.items():
        ops = entry.get("ops_per_sec")
        if ops:
            best[name] = max(best.get(name, 0), ops)
    return {
        "generated_by": "benchmarks/test_library_perf.py",
        "seed_baseline": baseline,
        "results": results,
        "speedup_vs_seed": speedups,
        "best_ops_per_sec": dict(sorted(best.items())),
    }
