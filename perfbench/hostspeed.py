"""Host-speed reference: a fixed pure-Python kernel timed between rounds.

Shared VMs change speed by up to 1.5x for tens of seconds at a time, and
every kind of Python code slows together.  The benchmark times this kernel
between its rounds and scales each host-time metric to a host on which
the kernel runs :data:`NOMINAL_RATE` times a second, which cancels those
swings while leaving any change to the program under test visible.

The kernel exercises what the simulator spends its time on — object
attribute access, dict lookups, method calls, int and bytes work — and
never touches ``repro``.  Do not change it, or :data:`NOMINAL_RATE`:
either rescales every host-time metric.
"""

from __future__ import annotations

import time

#: Kernel runs per second on the reference host.
NOMINAL_RATE = 400.0
#: Kernel runs per sample batch.
REPEATS = 3


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node) -> None:
        self.key = key
        self.value = value
        self.next = next_node


def kernel() -> int:
    table: dict[int, _Node] = {}
    head = None
    acc = 0
    for i in range(3000):
        head = _Node(i & 63, i, head)
        table[i & 255] = head
        node = table.get((i * 7) & 255)
        if node is not None:
            acc += node.value ^ node.key
    buf = bytearray(4096)
    for i in range(0, 4096, 8):
        buf[i:i + 8] = ((acc + i) & 0xFFFFFFFF).to_bytes(8, "little")
    return acc + len(bytes(buf))


def sample(repeats: int = REPEATS) -> list[float]:
    """Kernel runs per second, one figure per run of the kernel."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        kernel()
        rates.append(1e9 / (time.perf_counter_ns() - t0))
    return rates
