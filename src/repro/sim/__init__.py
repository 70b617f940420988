"""Cycle-accurate simulation of Calyx programs (the Verilator substitute).

The simulator implements RTL semantics: each clock cycle, guarded
assignments and primitive combinational functions are evaluated to a
fixpoint (the *settle* phase), then stateful primitives latch their inputs
(the *tick*). It executes programs at every stage of compilation:

* **unlowered** programs (with groups and a control tree) run through a
  built-in control executor that mirrors the semantics of Section 3.4, and
* **lowered** programs (flat guarded assignments, control realized as FSM
  registers) run purely structurally — this is what the paper measures
  with Verilator, and what the benchmark harness measures here.

Differential testing between the two modes validates the compiler.

Each engine named in :data:`ENGINES` is an instance class over one
template layer (:mod:`repro.sim.model`): ``sweep``, the reference
(:class:`~repro.sim.reference.ReferenceInstance`: each nested
component an instance of its own, every node to fixpoint, each driver's
guard evaluated over the slots), and ``levelized``
(:class:`ComponentInstance`: every nested component stamped into one flat
netlist, a dirty bitmask drained in level order, each distinct guard
sub-expression one shared node of the netlist). Both derive from
:class:`EngineInstance`.
"""

from repro.sim.model import ComponentInstance, EngineInstance, eval_guard
from repro.sim.testbench import (
    Testbench,
    SimulationResult,
    Watchdog,
    run_program,
    DEFAULT_DEADLOCK_WINDOW,
    DEFAULT_ENGINE,
    DEFAULT_MAX_CYCLES,
    ENGINES,
    ORACLE_ENGINE,
    resolve_engine,
)

__all__ = [
    "ComponentInstance",
    "EngineInstance",
    "eval_guard",
    "Testbench",
    "SimulationResult",
    "Watchdog",
    "run_program",
    "DEFAULT_DEADLOCK_WINDOW",
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_CYCLES",
    "ENGINES",
    "ORACLE_ENGINE",
    "resolve_engine",
]
