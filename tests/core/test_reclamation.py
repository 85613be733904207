"""Dropped containers are freed by reference counting alone.

Nothing a CPU owns points back at it strongly: memory holds the CPU's
code observer weakly, the trace cache holds its CPU weakly, and a
compiled trace is not in its own globals.  So the last reference to a
container (or to an engine and its fleet) frees it at once, without
waiting for the cyclic garbage collector.
"""

import gc
import weakref

import pytest

from repro.arch import Assembler, Reg
from repro.core import CountingServices, XContainer
from repro.core.engine import ExecutionEngine


@pytest.fixture
def gc_disabled():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_container_with_trace_and_patch_is_freed_without_gc(gc_disabled):
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 200)
    asm.label("loop")
    asm.syscall_site(39)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    xc = XContainer(CountingServices())
    xc.run(asm.build())
    assert xc.cpu.trace_stats.compiles >= 1
    assert xc.abom_stats.total_patches >= 1
    container, cpu = weakref.ref(xc), weakref.ref(xc.cpu)
    memory = weakref.ref(xc.memory)
    traces = [weakref.ref(t.fn) for t in xc.cpu._tracecache.traces.values()]
    assert traces
    del xc
    assert container() is None
    assert cpu() is None
    assert memory() is None
    assert [ref() for ref in traces] == [None] * len(traces)


def test_engine_fleet_is_freed_without_gc(gc_disabled):
    engine = ExecutionEngine(hybrid=True)
    for _ in range(8):
        engine.spawn()
    for domid in range(8):
        engine.post_work(domid, 3, (domid + 1) * engine.tick_ns)
    engine.run_until(20 * engine.tick_ns)
    assert engine.total_completed() == 24
    first = engine.domain(0).container
    assert first.cpu.trace_stats.compiles >= 1
    refs = [weakref.ref(engine), weakref.ref(first), weakref.ref(first.cpu)]
    del engine, first
    assert [ref() for ref in refs] == [None, None, None]
