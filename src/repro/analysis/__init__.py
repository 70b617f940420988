"""Program analyses shared by optimization passes.

* :mod:`repro.analysis.coloring` — the :class:`ConflictGraph` both sharing
  passes build (one int neighbour mask per name) and its greedy coloring,
* :mod:`repro.analysis.schedule` — which groups and invokes may run in
  parallel, as a conflict graph (drives resource sharing, Section 5.1),
* :mod:`repro.analysis.pcfg` — parallel control-flow graphs with p-nodes
  (Section 5.2, after Srinivasan & Wolfe),
* :mod:`repro.analysis.read_write` — register read/must-write sets,
* :mod:`repro.analysis.liveness` — backward dataflow liveness over pCFGs
  on register masks, yielding the register conflict graph,
* :mod:`repro.analysis.latency` — static latency of control trees
  (Sections 4.4 and 5.3),
* :mod:`repro.analysis.live_groups` — the groups a control program can
  reach (dead-group removal and the never-enabled-group lint).
"""

from repro.analysis.coloring import ConflictGraph, greedy_coloring
from repro.analysis.schedule import parallel_conflicts
from repro.analysis.latency import control_latency, group_latency

__all__ = [
    "ConflictGraph",
    "greedy_coloring",
    "parallel_conflicts",
    "control_latency",
    "group_latency",
]
