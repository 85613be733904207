"""Seed-spread check: run a workload over several seeds and report spreads.

For each end-to-end metric this prints the median over the runs and the
interquartile range as a share of the median (``statistics.quantiles``,
``n=4``), next to the metric's bound from ``BENCHMARK.json`` — the same
figures used to judge whether the benchmark is steady enough.

    python3 perfbench/steady.py --workload io --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            config["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(done.stdout, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s): " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:32s} median {median:14.6g}  spread {spread:7.4f}  "
              f"bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
