"""Source-to-checked-result benchmark for the Calyx reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload polybench --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``):

* ``systolic`` -- the systolic-array generator at 4x4 with every
  optimization; compile time goes mostly to register sharing, and the
  simulation to 16 processing-element instances.
* ``polybench`` -- the Fig. 8 fast subset of PolyBench through the
  mini-Dahlia frontend, plain and unrolled; simulation and lint dominate.
* ``difftest`` -- the differential oracle on ``examples/*.futil``: the
  control-tree interpreter against every lowering pipeline on the
  reference engine, then the optimized build linted and emitted.

A run sets up (imports plus input generation, timed in fresh processes),
runs every job once to warm up, then repeats the workload's jobs in order
for ``--seconds``. The last line of standard output is one JSON object.
With ``--trace 0`` its metrics are the end-to-end ones:

* ``latency_ms`` -- geometric mean over the workload's designs of each
  design's median source-to-checked-result time,
* ``setup_s`` -- median set-up time over several fresh processes,
* ``peak_rss_mb`` -- peak resident memory of the benchmark process.

The toolchain is single-threaded pure Python, so its host time scales
with the speed the host lends the process, which on a shared machine
drifts by tens of percent from minute to minute. ``latency_ms`` and
``setup_s`` are therefore reported at a reference speed: each timed job
or set-up is paired with a calibration loop run just before it, which
uses no repository code, and its time is scaled by the ratio of the
loop's nominal time (:data:`CALIBRATION_NOMINAL_S`) to the loop's
measured time.

With ``--trace 1`` the same loop runs with a span around every layer
call, and its metrics are per-layer: mean milliseconds per job (raw host
time) in each layer and each pass of the ``all`` pipeline, plus simulated
cycles.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_REPEATS = 11

#: Seconds :func:`calibration_loop` takes on the reference host (a quiet
#: run on the machine the bounds in ``BENCHMARK.json`` were set on).
CALIBRATION_NOMINAL_S = 0.0094

#: The passes of the ``all`` pipeline, which every workload runs.
ALL_PASSES = [
    "well-formed",
    "compile-repeat",
    "collapse-control",
    "resource-sharing",
    "register-sharing",
    "infer-latency",
    "compile-invoke",
    "go-insertion",
    "static-compile",
    "compile-control",
    "dead-group-removal",
    "remove-groups",
    "guard-simplify",
    "dead-cell-removal",
]

LAYERS = ["frontend", "passes", "lint", "engine_build", "sim", "backend"]


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["systolic", "polybench", "difftest"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and build the workload's inputs, then exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def calibration_loop() -> float:
    """Seconds taken by a fixed interpreter-bound loop of plain Python.

    Dict updates, attribute-free tuple work, sorting and small calls: the
    same kind of work the toolchain does, none of it repository code.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(40000):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
    pairs = sorted(table.items(), key=lambda kv: (kv[1] * 31) % 997)
    total = sum(a ^ b for a, b in pairs)
    words = [str(total + i) for i in range(8000)]
    "".join(sorted(words))
    return time.perf_counter() - start


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` at the reference host speed (see the module docstring)."""
    return seconds * CALIBRATION_NOMINAL_S / calibration


def measure_setup(args: argparse.Namespace) -> float:
    """Median scaled wall time of a fresh process that imports and sets up."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-only",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        "1",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        calibration = calibration_loop()
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(scaled(time.perf_counter() - start, calibration))
    return statistics.median(times)


def install_layer_spans(tracer) -> None:
    """Spans on the layers that other layers call (see ``spans.py``)."""
    from repro.passes import PassManager
    from repro.sim import Testbench

    tracer.install(PassManager, "run", "passes")
    tracer.install(PassManager, "_run_one", lambda pm, i, name, *rest: "pass." + name)
    tracer.install(Testbench, "__init__", "engine_build")
    tracer.install(Testbench, "run", "sim")


def run_jobs(jobs, seconds: float, span) -> dict:
    """Repeat the jobs in order, whole rounds, until ``seconds`` pass."""
    latencies: Dict[str, List[float]] = {job.name: [] for job in jobs}
    raw = 0.0
    attempted = failed = cycles = 0
    deadline = time.perf_counter() + seconds
    while True:
        for job in jobs:
            calibration = calibration_loop()
            start = time.perf_counter()
            try:
                outcome = job.run(span)
            except Exception:  # a crashing design is a failed job, not a crash
                traceback.print_exc()
                outcome = None
            elapsed = time.perf_counter() - start
            latencies[job.name].append(scaled(elapsed, calibration))
            raw += elapsed
            attempted += 1
            if outcome is None or not outcome.ok:
                print(f"check failed: {job.name}", file=sys.stderr)
                failed += 1
            else:
                cycles += outcome.cycles
        if time.perf_counter() >= deadline:
            break
    return {
        "latencies": latencies,
        "raw_seconds": raw,
        "attempted": attempted,
        "failed": failed,
        "cycles": cycles,
    }


def layer_metrics(seconds: Dict[str, float], stats: dict) -> dict:
    """Mean milliseconds per job in each layer and pass, plus cycles."""
    jobs = stats["attempted"]
    metrics = {"job_ms": {"value": 1000 * stats["raw_seconds"] / jobs, "unit": "ms"}}
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = {"value": 1000 * seconds[layer] / jobs, "unit": "ms"}
    for name in ALL_PASSES:
        key = "pass_" + name.replace("-", "_") + "_ms"
        metrics[key] = {"value": 1000 * seconds["pass." + name] / jobs, "unit": "ms"}
    metrics["sim_cycles"] = {"value": stats["cycles"] / jobs, "unit": "count"}
    metrics["sim_cycles_per_s"] = {
        "value": stats["cycles"] / seconds["sim"],
        "unit": "1/s",
    }
    return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from spans import LayerTracer, untraced
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0

    setup_s = measure_setup(args)
    jobs = WORKLOADS[args.workload](args.seed)
    for job in jobs:  # warm-up: lazy imports and caches, not timed
        job.run(untraced)

    if args.trace:
        with LayerTracer() as tracer:
            install_layer_spans(tracer)
            stats = run_jobs(jobs, args.seconds, tracer.call)
        metrics = layer_metrics(tracer.seconds, stats)
    else:
        stats = run_jobs(jobs, args.seconds, untraced)
        medians = [statistics.median(v) for v in stats["latencies"].values()]
        latency = math.exp(sum(math.log(m) for m in medians) / len(medians))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "latency_ms": {"value": latency * 1000, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }

    print(
        json.dumps(
            {
                "correct": stats["failed"] == 0,
                "attempted": stats["attempted"],
                "failed": stats["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
