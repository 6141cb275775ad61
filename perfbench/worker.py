"""One benchmark workload in a fresh process; prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  It runs
full passes over the workload's items until `--seconds` is (predictably)
used up, checking every verdict against its known answer, and reports the
median pass.  With `--trace 1` the first half of the time runs untraced and
the second half under the span tracer, which gives the per-layer metrics
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3


@dataclass
class Pass:
    wall_s: float
    max_item_s: float
    failed: int
    abs_err_max: float
    layers: dict  # per-layer metrics of a traced pass, else empty


def run_pass(items, tracer=None) -> Pass:
    failed, slowest, abs_err = 0, 0.0, 0.0
    start = time.perf_counter()
    for item in items:
        run = tracer.wrap(item.name, item.run) if tracer else item.run
        t0 = time.perf_counter()
        try:
            abs_err = max(abs_err, run())
        except Exception:  # a crash is a failed verdict; the pass goes on
            failed += 1
            print(f"FAILED {item.name}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        slowest = max(slowest, time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return Pass(wall, slowest, failed, abs_err, tracer.metrics() if tracer else {})


def run_passes(items, budget_s: float, min_passes: int, tracer=None) -> list:
    """Passes until another one would end after `budget_s`."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        passes.append(run_pass(items, tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= min_passes and elapsed + typical > budget_s:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import bundle_forge

    if Path(bundle_forge.__file__).resolve().parent != ROOT / "src" / "bundle_forge":
        print(f"error: imported {bundle_forge.__file__}, not this checkout", file=sys.stderr)
        return 2
    from bundle_forge.quadbench import SphereGrid

    import workloads
    from spans import Tracer

    grid = SphereGrid.build(*workloads.GRID_SHAPE)
    items = workloads.WORKLOADS[args.workload](args.seed, grid)

    if not args.trace:
        passes = run_passes(items, args.seconds, MIN_PASSES)
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "max_item_s": statistics.median(p.max_item_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        attempted = len(items) * len(passes)
        failed = sum(p.failed for p in passes)
    else:
        plain = run_passes(items, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(items, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.write(
            ROOT / ".bench_out" / f"trace-{args.workload}.json",
            workload=args.workload, seed=args.seed,
        )
        metrics = {
            name: statistics.median(p.layers[name] for p in traced)
            for name in traced[0].layers
        }
        metrics["quadbench.abs_err_max"] = max(p.abs_err_max for p in traced)
        metrics["trace.overhead_s"] = statistics.median(
            p.wall_s for p in traced
        ) - statistics.median(p.wall_s for p in plain)
        attempted = len(items) * (len(plain) + len(traced))
        failed = sum(p.failed for p in plain + traced)
        bypass = workloads.BYPASS.get(args.workload)
        if bypass:
            attempted += len(traced)
            for p in traced:
                if p.layers[bypass] != 0:
                    failed += 1
                    print(f"FAILED bypass: {bypass} = {p.layers[bypass]}", file=sys.stderr)

    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
