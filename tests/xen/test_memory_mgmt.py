import pytest

from repro.perf.clock import SimClock
from repro.xen.hypervisor import XenHypervisor
from repro.xen.memory_mgmt import BalloonDriver, BalloonError


def make_balloon(memory_mb=512, **kwargs):
    xen = XenHypervisor(clock=SimClock(), total_memory_mb=16384)
    domain = xen.create_domain("u", memory_mb=memory_mb)
    return xen, domain, BalloonDriver(xen, domain, **kwargs)


class TestBalloon:
    def test_inflate_returns_memory(self):
        xen, domain, balloon = make_balloon()
        free_before = xen.free_memory_mb
        balloon.inflate(128)
        assert domain.memory_mb == 384
        assert xen.free_memory_mb == free_before + 128

    def test_deflate_reclaims_memory(self):
        xen, domain, balloon = make_balloon()
        balloon.inflate(128)
        balloon.deflate(64)
        assert domain.memory_mb == 448

    def test_floor_enforced(self):
        _, _, balloon = make_balloon(memory_mb=128, min_mb=64)
        with pytest.raises(BalloonError):
            balloon.inflate(100)

    def test_ceiling_enforced(self):
        _, _, balloon = make_balloon(memory_mb=512, max_mb=640)
        with pytest.raises(BalloonError):
            balloon.deflate(256)

    def test_cannot_deflate_beyond_free_pool(self):
        xen = XenHypervisor(clock=SimClock(), total_memory_mb=4096 + 600)
        domain = xen.create_domain("u", memory_mb=512)
        balloon = BalloonDriver(xen, domain, max_mb=4096)
        with pytest.raises(BalloonError):
            balloon.deflate(512)  # only 88 MB free

    def test_balloon_ops_are_hypercalls(self):
        xen, _, balloon = make_balloon()
        balloon.inflate(64)
        balloon.deflate(64)
        assert xen.hypercalls.counts["memory_op"] == 2

    def test_bad_sizes_rejected(self):
        _, _, balloon = make_balloon()
        with pytest.raises(ValueError):
            balloon.inflate(0)
        with pytest.raises(ValueError):
            balloon.deflate(-1)
