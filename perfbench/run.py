"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload syscall --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing and then
replays one traced round to check that tracing leaves the simulated
outputs unchanged.  ``--trace 1`` spends half the time untraced and half
traced, and reports the per-layer split (host seconds and simulated ns
per layer, plus the layers' own counters).  Both modes run every
correctness check; each failed check counts as one failed op.

Host compute metrics are scaled to a reference host speed: a fixed
kernel (``hostspeed.py``) is timed before and after every round, and
each round's host times are multiplied by its ``host_speed`` = median
kernel rate / ``NOMINAL_RATE`` (its rates are divided by it) before the
median over rounds is taken; ``setup_s`` is scaled part by part the same
way.  The unscaled figures (``raw.*``) and the median ``host_speed`` are
printed in the table.

Python modules are imported from a bytecode cache under ``.bench_build/``
(written on first use), so ``setup_s`` measures loading the program, not
compiling its source.

The last line of standard output is the JSON result; the lines before it
are a human-readable table of the same numbers plus the workload's
extra figures.  Metric names and units come from ``BENCHMARK.json``.
Spans of a traced run are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import hostspeed  # noqa: E402  (needs the path above)

#: Bytecode cache shared by this process and the import probes.
PYCACHE = ROOT / ".bench_build" / "pycache"
#: Import timing runs in fresh interpreters, this many times before the
#: rounds and this many after, so one burst of host noise moves at most
#: part of the median.
IMPORT_PROBES = (2, 3)
#: Prints the import time and the host speed right after it.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import workloads; "
    "t = time.perf_counter() - t; import hostspeed, statistics; "
    "print(t, statistics.median(hostspeed.sample()) / hostspeed.NOMINAL_RATE)"
)

#: Per-layer host times: self time of these span names, per round.
TIME_GROUPS = {
    "arch.run_self_s": ("arch.run",),
    "core.trap_s": ("core.trap",),
    "core.libos_s": ("core.libos",),
    "core.abom_s": ("core.abom",),
    "core.boot_s": ("core.boot", "core.spawn"),
    "core.engine_run_s": ("core.engine_run",),
    "xen.net_s": ("xen.net", "xen.event"),
    "xen.blk_read_s": ("xen.blk_read",),
    "xen.blk_write_s": ("xen.blk_write",),
    "guest.syscall_s": ("guest.syscall",),
    "guest.ipvs_s": ("guest.ipvs",),
    "serve.traffic_s": ("serve.runner", "serve.traffic"),
    "serve.exec_fleet_s": ("serve.exec_fleet",),
    "serve.autoscale_s": ("serve.autoscale",),
    "serve.control_self_s": ("serve.control",),
}
#: Per-layer simulated time: self simulated ns of these span names.
SIM_GROUPS = {
    "core.trap_sim_ns": ("core.trap",),
    "core.libos_sim_ns": ("core.libos",),
    "xen.net_sim_ns": ("xen.net", "xen.event"),
    "xen.blk_sim_ns": ("xen.blk_read", "xen.blk_write"),
}
#: Per-layer call counts: calls through these span names.
CALL_COUNTS = {
    "core.traps": "core.trap",
    "core.abom_attempts": "core.abom",
    "core.boots": "core.boot",
    "xen.event_sends": "xen.event",
    "guest.syscalls": "guest.syscall",
    "serve.intervals": "serve.runner",
}
#: ``serve`` results reported as per-layer metrics ``serve.<name>``.
SERVE_SIM = ("sim_rps", "sim_p50_ms", "sim_p99_ms", "sim_error_rate")


def _median(values) -> float:
    return statistics.median(values)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _rate(rnd) -> float:
    return rnd.ops / (rnd.op_ns / 1e9)


def _import_probes(count: int) -> list[tuple[float, float]]:
    """``(import seconds, host speed)`` of fresh interpreters importing
    the program and the benchmark from the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
               PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=60,
        )
        seconds, speed = done.stdout.split()
        samples.append((float(seconds), float(speed)))
    return samples


def layer_times(spans, root_ns: int, wall_ns: int) -> dict[str, float]:
    """Self host seconds per layer, plus wall time no span covers."""
    out = {
        metric: sum(spans[n].self_host_ns for n in names if n in spans) / 1e9
        for metric, names in TIME_GROUPS.items()
    }
    out["bench.unattributed_s"] = (wall_ns - root_ns) / 1e9
    return out


def layer_counts(spans, state: dict, engines: list, sim: dict) -> dict[str, float]:
    """Deterministic per-layer counters and simulated ns of one round."""
    out: dict[str, float] = {}
    for metric, names in SIM_GROUPS.items():
        out[metric] = sum(spans[n].self_sim_ns for n in names if n in spans)
    for metric, name in CALL_COUNTS.items():
        out[metric] = spans[name].calls if name in spans else 0

    engines = state.get("engines", engines)
    containers = state.get("containers") or [
        engine.domain(d).container
        for engine in engines
        for d in range(engine.n_domains)
    ]
    cpus = [cpu for xc in containers for cpu in xc.cpus]
    retired = sum(c.instructions_retired for c in cpus)
    hits = sum(c.icache_stats.hits for c in cpus)
    misses = sum(c.icache_stats.misses for c in cpus)
    out["arch.instructions"] = retired
    out["arch.icache_hit_rate"] = _share(hits, hits + misses)
    out["arch.icache_invalidations"] = sum(c.icache_stats.invalidations for c in cpus)
    out["arch.trace_compiles"] = sum(c.trace_stats.compiles for c in cpus)
    out["arch.trace_guard_exits"] = sum(c.trace_stats.guard_exits for c in cpus)
    out["arch.trace_instr_share"] = _share(
        sum(c.trace_stats.instructions for c in cpus), retired
    )

    light = sum(xc.libos_stats.lightweight_syscalls for xc in containers)
    forwarded = sum(xc.libos_stats.forwarded_syscalls for xc in containers)
    patches = sum(xc.abom_stats.total_patches for xc in containers)
    out["core.lightweight_syscalls"] = light
    out["core.forwarded_syscalls"] = forwarded
    out["core.lightweight_share"] = _share(light, light + forwarded)
    out["core.abom_patches"] = patches
    out["core.abom_patch_ratio"] = _share(patches, out["core.abom_attempts"])

    stats = [engine.stats for engine in engines]
    domain_ns = sum(
        engine.domain(d).clock.now_ns
        for engine in engines
        for d in range(engine.n_domains)
    )
    out["core.engine_wake_events"] = sum(s.wake_events for s in stats)
    out["core.engine_spurious_wakes"] = sum(s.spurious_wakes for s in stats)
    out["core.engine_redeliveries"] = sum(s.redeliveries for s in stats)
    out["core.engine_fastforward_share"] = _share(
        sum(s.fastforward_ns for s in stats), domain_ns
    )

    net = state.get("net")
    blk = state.get("blk")
    for metric, field in (("kicks", "kicks"), ("avg_batch", "avg_batch_size"),
                          ("ring_full_stalls", "ring_full_stalls"),
                          ("backend_restarts", "backend_restarts")):
        out[f"xen.net_{metric}"] = getattr(net.stats, field) if net else 0
    for metric, field in (("reads", "reads"), ("writes", "writes"),
                          ("avg_batch", "avg_batch_size"),
                          ("ring_stalls", "ring_stalls")):
        out[f"xen.blk_{metric}"] = getattr(blk.stats, field) if blk else 0

    result = state.get("result")
    out["guest.ipvs_schedules"] = result.ipvs_stats.scheduled if result else 0
    out["serve.arrivals"] = result.requests if result else 0
    for name in SERVE_SIM:
        out[f"serve.{name}"] = sim.get(name, 0.0)
    return out


class Runner:
    """Runs rounds of one workload and keeps the bookkeeping."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.reference: str | None = None
        self.attempted = 0
        self.failures: list[str] = []
        #: Reference-kernel rates sampled after the latest round.
        self._speed_after = hostspeed.sample()

    def round(self, tracer=None, label: str = "untraced"):
        first = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter_ns()
        state = self.workload.setup()
        setup_ns = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.clock = state.get("clock")
        rnd = self.workload.run(state)
        rnd.setup_ns = setup_ns
        if tracer is not None:
            spans = tracer.by_name(first)
            engines = list(tracer.captured.get("core.engine_run", {}).values())
            rnd.layer_times = layer_times(
                spans, tracer.root_ns(first), setup_ns + rnd.op_ns
            )
            rnd.layer_counts = layer_counts(spans, rnd.state, engines, rnd.sim)
            tracer.end_round()
        # Drop the round's domains so memory does not grow with rounds.
        rnd.state = None
        # The host speed a round ran at: reference samples on both sides.
        before, self._speed_after = self._speed_after, hostspeed.sample()
        rnd.host_speed = _median(before + self._speed_after) / hostspeed.NOMINAL_RATE
        self.attempted += rnd.ops
        self.failures += [f"{label}: {name}" for name in rnd.failures]
        if self.reference is None:
            self.reference = rnd.digest
        elif rnd.digest != self.reference:
            self.failures.append(f"{label}: simulated digest differs from the first round")
        return rnd

    def rounds(self, seconds: float, tracer=None, label: str = "untraced"):
        out = []
        deadline = time.perf_counter() + seconds
        while not out or time.perf_counter() < deadline:
            out.append(self.round(tracer, label))
        return out


def _speed(rnd, scale: bool) -> float:
    return rnd.host_speed if scale else 1.0


def _scaled_rate(rnd, scale: bool = True) -> float:
    return _rate(rnd) / _speed(rnd, scale)


def setup_seconds(imports, build, rounds, scale: bool) -> float:
    """Import (median over probes) + input generation + per-round setup
    (median over rounds); ``imports`` and ``build`` are ``(seconds,
    host speed)`` pairs."""
    def at(seconds: float, speed: float) -> float:
        return seconds * speed if scale else seconds

    return (
        _median(at(*probe) for probe in imports)
        + at(*build)
        + _median(at(r.setup_ns / 1e9, r.host_speed) for r in rounds)
    )


def end_to_end(rounds, setup_s: float, scale: bool) -> dict[str, float]:
    """End-to-end metrics; ``scale`` puts host compute at reference speed."""
    return {
        "ops_per_s": _median(_scaled_rate(r, scale) for r in rounds),
        "guest_mips": _median(
            r.instructions / (r.op_ns / 1e3) / _speed(r, scale) for r in rounds
        ),
        "boot_ms": _median(
            b * _speed(r, scale) for r in rounds for b in r.boot_ns
        ) / 1e6,
        "setup_s": setup_s,
        "host_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ns_per_op": rounds[0].sim_ns_per_op,
    }


def per_layer(untraced, traced, scale: bool) -> dict[str, float]:
    """Per-layer metrics; ``scale`` puts host seconds at reference speed."""
    out = {
        metric: _median(rnd.layer_times[metric] * _speed(rnd, scale) for rnd in traced)
        for metric in traced[0].layer_times
    }
    out.update(traced[0].layer_counts)
    out["bench.trace_overhead"] = (
        _median(_scaled_rate(r, scale) for r in untraced)
        / _median(_scaled_rate(r, scale) for r in traced)
        - 1.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = config["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}

    # Import through the shared bytecode cache, writing it on first use.
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    # Only the untraced run reports setup_s, so only it probes imports.
    imports = [] if args.trace else _import_probes(IMPORT_PROBES[0])
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    build = (time.perf_counter() - t0,
             _median(hostspeed.sample()) / hostspeed.NOMINAL_RATE)
    runner = Runner(workload)
    warmup = runner.round(label="warm-up")

    tracer = Tracer()
    extras = {}
    if args.trace:
        untraced = runner.rounds(args.seconds / 2)
        with tracer.installed(workload.wraps):
            traced = runner.rounds(args.seconds / 2, tracer, "traced")
        if any(r.layer_counts != traced[0].layer_counts for r in traced):
            runner.failures.append("traced: per-layer counts differ between rounds")
        metrics = per_layer(untraced, traced, scale=True)
        raw = per_layer(untraced, traced, scale=False)
        measured = untraced + traced
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        timed = runner.rounds(args.seconds)
        imports += _import_probes(IMPORT_PROBES[1])
        setup_rounds = [warmup] + timed
        metrics = end_to_end(
            timed, setup_seconds(imports, build, setup_rounds, scale=True), scale=True
        )
        raw = end_to_end(
            timed, setup_seconds(imports, build, setup_rounds, scale=False), scale=False
        )
        measured = timed
        with tracer.installed(workload.wraps):
            runner.round(tracer, "traced")
        extras = {f"serve.{k}": v for k, v in timed[0].sim.items()}

    if [m["name"] for m in section] != list(metrics):
        raise RuntimeError("metrics out of step with BENCHMARK.json")
    failed = min(len(runner.failures), runner.attempted)
    for failure, times in Counter(runner.failures).items():
        print(f"FAILED CHECK {failure} (x{times})")
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    rows += [(name, value, units[name]) for name, value in extras.items()]
    rows += [(f"raw.{name}", value, units[name])
             for name, value in raw.items() if value != metrics[name]]
    rows += [("host_speed", _median(r.host_speed for r in measured), "x"),
             ("error_rate", failed / runner.attempted, "ratio")]
    for name, value, unit in rows:
        print(f"{name:32s} {value:18.6f} {unit}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
