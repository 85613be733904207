"""Bounded retry/backoff and timeout policies.

Injected faults are *survivable*, not just observable: the netfront,
blkfront, toolstack, and netstack paths route their transient failures
through a :class:`RetryPolicy`, which bounds attempts, charges
exponential backoff to the simulated clock, and reports the lifecycle
(retried → recovered | fatal) through the substrate's probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.faults import sites
from repro.perf.clock import SimClock

if TYPE_CHECKING:
    from repro.obs.probe import Probe

T = TypeVar("T")


class RetryExhausted(RuntimeError):
    """The retry budget ran out; the last failure is chained as cause."""

    def __init__(self, site: str, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"{site or 'operation'} still failing after {attempts} attempts: "
            f"{last}"
        )
        self.site = site
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a hard attempt cap.

    ``max_attempts`` counts *calls* of the protected operation: with the
    default 5, an operation may fail four times and succeed on the fifth.
    """

    max_attempts: int = 5
    base_backoff_ns: float = 2_000.0
    multiplier: float = 2.0
    max_backoff_ns: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_backoff_ns < 0 or self.max_backoff_ns < 0:
            raise ValueError("backoff must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")

    def backoff_ns(self, failures: int) -> float:
        """Backoff charged after the ``failures``-th failure (1-based)."""
        if failures < 1:
            raise ValueError(f"failures is 1-based: {failures}")
        return min(
            self.base_backoff_ns * self.multiplier ** (failures - 1),
            self.max_backoff_ns,
        )

    def total_budget_ns(self) -> float:
        """Worst-case simulated time spent backing off before giving up."""
        return sum(
            self.backoff_ns(failure)
            for failure in range(1, self.max_attempts)
        )

    def run(
        self,
        fn: Callable[[], T],
        retriable: tuple[type[BaseException], ...] | type[BaseException],
        *,
        clock: SimClock | None = None,
        probe: Probe | None = None,
        site: str = "",
        on_retry: Callable[[BaseException, int], None] | None = None,
    ) -> T:
        """Call ``fn`` until it succeeds or the attempt cap is hit.

        ``on_retry(exc, failures)`` runs before each re-attempt (e.g. the
        netfront reconnect); exceptions it raises are themselves subject
        to the ``retriable`` filter.  Each failure fires a retry (or, on
        exhaustion, a fatal) lifecycle site on ``probe``, and eventual
        success after a failure fires a recovery; on exhaustion
        :class:`RetryExhausted` is raised with the last failure chained.
        """
        failures = 0
        while True:
            try:
                result = fn()
            except retriable as exc:
                failures += 1
                error = type(exc).__name__
                if failures >= self.max_attempts:
                    if probe is not None:
                        probe.fire(
                            sites.FATAL, site=site, error=error,
                            attempts=failures,
                        )
                    raise RetryExhausted(site, failures, exc) from exc
                if probe is not None:
                    probe.fire(sites.RETRIED, site=site, error=error)
                if clock is not None:
                    clock.advance(self.backoff_ns(failures))
                if on_retry is not None:
                    try:
                        on_retry(exc, failures)
                    except retriable:
                        # Recovery itself failed transiently; the next
                        # loop iteration re-attempts from scratch.
                        pass
                continue
            if failures and probe is not None:
                probe.fire(sites.RECOVERED, site=site, attempts=failures + 1)
            return result
