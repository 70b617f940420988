"""Configuration for the benchmark harness.

Figure 7 sweeps the systolic sizes :data:`FIG7_SIZES`; Figures 8 and 9
run PolyBench at problem size :data:`POLYBENCH_N`. Set ``REPRO_FAST=1`` to
run a reduced, fast configuration.

Command-line options (benchmark runs only):

* ``--engine {sweep,levelized}`` — simulation engine (default: levelized,
  the scheduled strategy; ``sweep`` is the reference strategy),
* ``--emit-json FILE`` — merge per-kernel simulation throughput
  (cycles/sec) into FILE, keyed by figure and engine; multiple
  benchmark files share one JSON.
"""

import os

from repro.eval.common import write_throughput_json
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


def emit_sim_json(request, figure, rows):
    """Merge one figure's throughput into the ``--emit-json`` file.

    The file maps figure name -> engine -> kernel, the same shape
    ``calyx-py eval --emit-json`` writes (see
    :func:`repro.eval.common.write_throughput_json`).
    """
    path = request.config.getoption("--emit-json")
    if path:
        write_throughput_json(
            path, figure, sim_engine(request), {r.label: r.metrics for r in rows}
        )


FIG7_SIZES = [2, 3, 4, 5, 6, 7, 8]
POLYBENCH_N = 4


def fig7_sizes():
    """The committed sizes; ``REPRO_FAST`` keeps the smallest three."""
    return FIG7_SIZES[:3] if os.environ.get("REPRO_FAST") else FIG7_SIZES


def polybench_subset():
    """Kernel filter: None means all 19."""
    if os.environ.get("REPRO_FAST"):
        return ["gemm", "trisolv", "mvt", "gesummv", "atax"]
    return None
