"""Outside-in benchmark of bundle-forge.

    python3 perfbench/run.py --workload exact_chern --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (worker.py) importing `bundle_forge` from the checkout's `src`,
with BLAS and OpenMP pinned to one thread.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the latter holding every `end_to_end` metric of BENCHMARK.json with
`--trace 0` and every `per_layer` metric with `--trace 1`.

`setup_s` is the median over SETUP_PROBES fresh interpreters of the time
from process start to the end of `import bundle_forge` plus
`SphereGrid.build(64, 128)`; one uncounted probe first fills the bytecode
cache.  Spans of a traced run go to `.bench_out/trace-<workload>.json`.
Exits 2 without a result when the checkout holds no `src/bundle_forge`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bundle_forge"
SETUP_PROBES = 11
# every run must end within 180 s
RUN_LIMIT_S = 170.0
PROBE = (
    "import time, bundle_forge\n"
    "from bundle_forge.quadbench import SphereGrid\n"
    "SphereGrid.build(64, 128)\n"
    "print(time.monotonic(), bundle_forge.__file__)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BUNDLE_FORGE_THREADS", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def setup_seconds(env: dict) -> float:
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT, check=True,
            stdout=subprocess.PIPE, text=True, timeout=30,
        ).stdout.split()
        if Path(out[1]).resolve().parent != PACKAGE:
            raise RuntimeError(f"probe imported {out[1]}, not this checkout")
        times.append(float(out[0]) - start)
    return statistics.median(times[1:])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no bundle_forge package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    env = child_env()
    metrics = {} if args.trace else {"setup_s": setup_seconds(env)}
    worker = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=RUN_LIMIT_S - (time.monotonic() - start),
    )
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.splitlines()[-1])
    metrics.update(result["metrics"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
