"""The chaos catalog: a plain ordered tuple with two lookups.

The catalog order is the report's row order, names are unique, and
unknown-name errors list the catalog sorted.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import scenarios

#: The 9 hand-written scenarios + the promoted fuzz sequence.
EXPECTED_CATALOG = [
    "backend-death-memcached",
    "migration-dirty-storm",
    "nginx-packet-loss",
    "grant-flaps-reconnect",
    "toolstack-spawn-timeouts",
    "scheduler-preemption-storm",
    "abom-cmpxchg-contention",
    "wake-drop-fleet",
    "event-storm-blkdev",
    "fuzz-notify-drop-burst",
]

SRC = Path(__file__).resolve().parents[2] / "src"


class TestCatalog:
    def test_shipped_catalog_in_report_order(self):
        assert scenarios.scenario_names() == EXPECTED_CATALOG

    def test_catalog_matches_names(self):
        assert [
            s.name for s in scenarios.catalog()
        ] == scenarios.scenario_names()

    def test_names_are_unique(self):
        names = scenarios.scenario_names()
        assert len(set(names)) == len(names)

    def test_get_scenario_returns_the_catalog_object(self):
        scenario = scenarios.get_scenario("nginx-packet-loss")
        assert scenario.name == "nginx-packet-loss"
        assert scenario in scenarios.catalog()

    def test_unknown_name_error_lists_catalog_sorted(self):
        with pytest.raises(KeyError) as caught:
            scenarios.get_scenario("nonesuch")
        message = str(caught.value)
        assert "unknown scenario 'nonesuch'" in message
        listed = message.split("known: ")[1].rstrip("\")'").split(", ")
        assert listed == sorted(scenarios.scenario_names())

    def test_importing_sites_does_not_import_fuzz(self):
        code = (
            "import sys\n"
            "import repro.faults.sites\n"
            "assert 'repro.fuzz' not in sys.modules, 'repro.fuzz imported'\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )


class TestPackageSurface:
    def test_package_exports_the_catalog_lookups(self):
        import repro.faults as faults

        assert faults.scenario_names is scenarios.scenario_names
        assert faults.get_scenario is scenarios.get_scenario
        for gone in ("register", "scenario", "list_scenarios"):
            assert not hasattr(faults, gone), gone
