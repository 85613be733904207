"""The fault-site drift check: catalog entries must stay wired.

``repro.faults.sites`` cross-checks every catalog entry — fault,
lifecycle, sanitizer and trace sites alike — against its substrate's
source at import time and refuses to import on drift, so a renamed
constant or a deleted ``probe.fire(...)`` call fails the build instead
of silently turning a chaos scenario or a sanitizer into a no-op.
"""

import pytest

from repro.faults import sites
from repro.faults.sites import SITES, SiteInfo, verify_hooks


class TestCatalogIsLive:
    def test_current_catalog_has_no_drift(self):
        assert verify_hooks() == []

    def test_import_already_proved_it(self):
        # The module imported, which means the import-time gate passed;
        # pin that the gate actually exists rather than trusting memory.
        import inspect

        source = inspect.getsource(sites)
        assert "raise RuntimeError" in source
        assert "verify_hooks()" in source

    def test_every_site_exports_a_constant(self):
        constants = sites._constant_names()
        assert sorted(constants) == sorted(SITES)

    def test_catalog_holds_every_probe_site_family(self):
        families = {
            "fault": [n for n, i in SITES.items() if i.kinds],
            "lifecycle": [n for n, i in SITES.items() if i.record],
            "sanitizer": [n for n, i in SITES.items() if i.sanitizer],
            "trace": [
                n for n, i in SITES.items() if i.trace and not i.record
            ],
        }
        assert all(families.values())
        assert sum(map(len, families.values())) == len(SITES)


class TestDriftIsDetected:
    def _with_site(self, monkeypatch, info, constant=None):
        patched = dict(SITES)
        patched[info.name] = info
        monkeypatch.setattr(sites, "SITES", patched)
        if constant is not None:
            monkeypatch.setattr(sites, constant, info.name, raising=False)
        return verify_hooks()

    def test_missing_substrate_module_is_reported(self, monkeypatch):
        problems = self._with_site(
            monkeypatch,
            SiteInfo("xen.ghost.op", "xen.ghost", ("fail",), "gone"),
            constant="GHOST_OP",
        )
        assert problems == [
            "xen.ghost.op: substrate module ghost.py is missing"
        ]

    def test_unexported_site_is_reported(self, monkeypatch):
        problems = self._with_site(
            monkeypatch,
            SiteInfo("xen.events.phantom", "xen.events", ("drop",), "x"),
        )
        assert problems == ["xen.events.phantom: no exported site constant"]

    def test_unreferenced_constant_is_reported(self, monkeypatch):
        # A real module that never mentions the fabricated constant.
        problems = self._with_site(
            monkeypatch,
            SiteInfo("xen.events.phantom", "xen.events", ("drop",), "x"),
            constant="PHANTOM_SITE",
        )
        assert problems == [
            "xen.events.phantom: xen.events never references "
            "sites.PHANTOM_SITE"
        ]

    def test_unfired_sanitizer_event_is_reported(self, monkeypatch):
        problems = self._with_site(
            monkeypatch,
            SiteInfo("xen.events.phantom", "xen.events", (), "x",
                     sanitizer="on_event_send"),
            constant="PHANTOM_EVENT",
        )
        assert problems == [
            "xen.events.phantom: xen.events never references "
            "sites.PHANTOM_EVENT"
        ]

    def test_drift_descriptions_are_sorted_by_site(self, monkeypatch):
        patched = dict(SITES)
        for name in ("a.a.one", "z.z.two"):
            patched[name] = SiteInfo(name, name.rsplit(".", 1)[0],
                                     ("fail",), "x")
        monkeypatch.setattr(sites, "SITES", patched)
        problems = verify_hooks()
        assert [p.split(":")[0] for p in problems] == ["a.a.one", "z.z.two"]


class TestPlanStillValidates:
    def test_unknown_site_rejected_by_fault_spec(self):
        from repro.faults.plan import Every, FaultSpec

        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="xen.ghost.op", kind="fail", trigger=Every(1))
