"""Dynamic memory management: ballooning (§4.5).

    "Dynamic memory allocation and over-subscription of Xen VMs have been
     studied in literature, leveraging mechanisms such as ballooning.  In
     addition, Xen provides native Transcendent Memory (tmem) support,
     which can be leveraged by Linux kernels in different VMs for
     efficiently sharing the page cache and RAM-based swap space."

The prototype's static-size limitation is lifted here by
:class:`BalloonDriver`, a per-domain balloon that inflates (returns pages
to Xen) and deflates (reclaims them), bounded by the domain's configured
maximum and the hypervisor's free pool.  No workload uses tmem, so it is
not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xen.hypervisor import Domain, XenHypervisor


class BalloonError(RuntimeError):
    pass


@dataclass
class BalloonStats:
    inflations: int = 0
    deflations: int = 0


class BalloonDriver:
    """Adjusts one domain's memory allocation at run time."""

    def __init__(
        self,
        xen: XenHypervisor,
        domain: Domain,
        min_mb: int = 64,
        max_mb: int | None = None,
    ) -> None:
        if min_mb <= 0:
            raise ValueError(f"min_mb must be positive: {min_mb}")
        self.xen = xen
        self.domain = domain
        self.min_mb = min_mb
        self.max_mb = max_mb if max_mb is not None else domain.memory_mb * 4
        self.stats = BalloonStats()

    def inflate(self, mb: int) -> None:
        """Give ``mb`` back to the hypervisor (balloon grows)."""
        if mb <= 0:
            raise ValueError(f"inflate size must be positive: {mb}")
        target = self.domain.memory_mb - mb
        if target < self.min_mb:
            raise BalloonError(
                f"cannot balloon {self.domain.name} below its {self.min_mb}"
                f" MB floor (target {target} MB)"
            )
        self.xen.hypercalls.call("memory_op")
        self.domain.memory_mb = target
        self.stats.inflations += 1

    def deflate(self, mb: int) -> None:
        """Reclaim ``mb`` from the hypervisor (balloon shrinks)."""
        if mb <= 0:
            raise ValueError(f"deflate size must be positive: {mb}")
        target = self.domain.memory_mb + mb
        if target > self.max_mb:
            raise BalloonError(
                f"{self.domain.name} is capped at {self.max_mb} MB "
                f"(target {target} MB)"
            )
        if mb > self.xen.free_memory_mb:
            raise BalloonError(
                f"hypervisor has only {self.xen.free_memory_mb} MB free"
            )
        self.xen.hypercalls.call("memory_op")
        self.domain.memory_mb = target
        self.stats.deflations += 1
