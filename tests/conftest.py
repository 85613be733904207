"""Session-wide fixtures.

``fuzz_search`` shares one bounded stateful-fuzz search per
``(seed, max_examples, steps, defect)`` key across the whole session:
the seeded-defect searches take tens of seconds each and are
deterministic per key, so the tests that only *read* a report (its
failure, shrunk steps and replay trace) all read the same one.
"""

import pytest


@pytest.fixture(scope="session")
def fuzz_search():
    """``fuzz_search(seed, max_examples, steps, defect)`` → the cached
    :class:`~repro.fuzz.report.FuzzReport` of that ``run_fuzz`` call."""
    pytest.importorskip("hypothesis")
    from repro.fuzz.machine import run_fuzz

    cache = {}

    def search(seed=0, max_examples=25, steps=30, defect=None):
        key = (seed, max_examples, steps, defect)
        if key not in cache:
            cache[key] = run_fuzz(
                seed=seed, max_examples=max_examples, steps=steps,
                defect=defect,
            )
        return cache[key]

    return search
