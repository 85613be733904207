"""Deterministic randomness helpers.

All stochastic behaviour in the simulator (request inter-arrival jitter,
run-to-run noise used to produce error bars) flows through a
:class:`DeterministicRng` seeded from the experiment id, so every experiment
is exactly reproducible.

Every draw is :class:`random.Random`'s own; ``random`` and
``getrandbits`` are the generator's bound C methods, so a hot loop can
bind them once.
"""

from __future__ import annotations

import hashlib
import random


class DeterministicRng:
    """A seeded RNG with a few convenience distributions."""

    def __init__(self, seed: int | str) -> None:
        if isinstance(seed, str):
            digest = hashlib.sha256(seed.encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "big")
        self.seed = seed
        self._rng = random.Random(seed)
        #: A float in [0, 1), straight from the generator.
        self.random = self._rng.random
        #: A non-negative int of ``k`` random bits, straight from the
        #: generator; the source of every integer draw.
        self.getrandbits = self._rng.getrandbits

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent child stream named ``label``."""
        return DeterministicRng(f"{self.seed}:{label}")

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        return self._rng.expovariate(rate)

    def gauss_factor(self, rel_std: float) -> float:
        """A multiplicative noise factor centred on 1.0, clamped positive."""
        return max(0.05, self._rng.gauss(1.0, rel_std))

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq):
        return self._rng.choice(seq)

    def choices(self, seq, weights, k: int):
        return self._rng.choices(seq, weights=weights, k=k)

    def shuffle(self, seq) -> None:
        self._rng.shuffle(seq)
