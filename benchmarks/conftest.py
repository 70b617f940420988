"""Configuration for the benchmark harness.

Environment knobs (all optional):

* ``REPRO_FIG7_SIZES`` — comma-separated systolic sizes (default 2..8),
* ``REPRO_POLYBENCH_N`` — PolyBench problem size (default 4),
* ``REPRO_FAST`` — set to 1 to run a reduced, fast configuration.

Command-line options (benchmark runs only):

* ``--engine {sweep,levelized}`` — simulation engine (default: levelized,
  the scheduled strategy; ``sweep`` is the reference strategy),
* ``--emit-json FILE`` — write per-kernel simulation throughput
  (cycles/sec) to FILE; multiple benchmark files merge into one JSON
  keyed by figure.
"""

import json
import os

from repro.sim import DEFAULT_ENGINE, ENGINES


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=sorted(ENGINES),
        help="simulation engine for benchmark runs",
    )
    parser.addoption(
        "--emit-json",
        default=None,
        metavar="FILE",
        help="record per-kernel simulation throughput (cycles/sec) as JSON",
    )


def sim_engine(request):
    """The engine selected with ``--engine`` (levelized by default)."""
    return request.config.getoption("--engine")


def emit_sim_json(request, payload):
    """Merge one figure's throughput payload into the ``--emit-json`` file.

    Each payload is ``{"figure": ..., "kernels": {...}}``; the file maps
    figure name -> engine -> kernels, so fig7 and fig8 runs share one
    file and a sweep run next to a levelized run exposes the speedup
    directly (compare ``cycles_per_second`` kernel by kernel).
    """
    path = request.config.getoption("--emit-json")
    if not path:
        return
    merged = {}
    if os.path.exists(path):
        with open(path) as handle:
            merged = json.load(handle)
    engine = request.config.getoption("--engine")
    merged.setdefault(payload["figure"], {})[engine] = payload["kernels"]
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")


def fig7_sizes():
    env = os.environ.get("REPRO_FIG7_SIZES")
    if env:
        return [int(s) for s in env.split(",") if s]
    if os.environ.get("REPRO_FAST"):
        return [2, 3, 4]
    return [2, 3, 4, 5, 6, 7, 8]


def polybench_n():
    return int(os.environ.get("REPRO_POLYBENCH_N", "4"))


def polybench_subset():
    """Kernel filter: None means all 19."""
    if os.environ.get("REPRO_FAST"):
        return ["gemm", "trisolv", "mvt", "gesummv", "atax"]
    return None
