"""Testbench: drive a program's main component and report cycle counts.

This plays the role the paper assigns to Verilator plus its harness
scripts: load input memories, raise ``go``, clock the design until ``done``
rises, and read back result memories. The cycle count it reports is the
number of clock edges until ``done`` is observed high.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.errors import (
    CycleLimitError,
    DeadlockError,
    SimulationError,
    UndefinedError,
    WallClockTimeoutError,
)
from repro.ir.ast import Program, ThisPort
from repro.ir.ports import GO
from repro.sim.model import ComponentInstance, EngineInstance
from repro.sim.reference import ReferenceInstance
from repro.stdlib.behaviors import MemModel, RegModel

DEFAULT_MAX_CYCLES = 5_000_000

#: The selectable simulation engines, each an instance class over the
#: templates of :mod:`repro.sim.model`. ``sweep`` is the reference
#: (:mod:`repro.sim.reference`: nested instances, every node to fixpoint,
#: each guard compiled over the slots from its own operator table);
#: ``levelized`` is the flat engine, one array drained in level order, its
#: guards shared netlist nodes. ``tests/test_engine_equivalence.py`` holds
#: them bit-identical.
ENGINES: Dict[str, Type[EngineInstance]] = {
    "sweep": ReferenceInstance,
    "levelized": ComponentInstance,
}

#: What a simulation runs on unless it asks for another engine.
DEFAULT_ENGINE = "levelized"

#: The reference the differential oracles (difftest and the fault-injection
#: self-test) compare against: independent of the compiled guard netlist.
ORACLE_ENGINE = "sweep"


def resolve_engine(name: str) -> Type[EngineInstance]:
    """Look up an engine's instance class by name (raising a helpful error)."""
    try:
        return ENGINES[name]
    except KeyError:
        raise UndefinedError(
            f"unknown simulation engine {name!r}; "
            f"choose from {', '.join(sorted(ENGINES))}"
        ) from None

#: Cycles without any ``done`` signal changing anywhere in the design
#: before the watchdog declares deadlock. Generous: the slowest primitive
#: (the pipelined divider) produces a done edge within a handful of cycles,
#: so any design making progress trips a change well inside the window.
DEFAULT_DEADLOCK_WINDOW = 1_024


@dataclass
class Watchdog:
    """Safety limits for one simulation run.

    ``max_cycles`` bounds simulated time, ``wall_clock_seconds`` bounds
    real time (None disables), and ``deadlock_window`` is the number of
    consecutive cycles with no ``done`` change anywhere in the instance
    tree before the run is declared deadlocked (0 disables). A
    ``fault_hook`` — called after each settle with ``(cycle, instance)``
    — is the injection point used by the fault-injection harness.
    """

    max_cycles: int = DEFAULT_MAX_CYCLES
    wall_clock_seconds: Optional[float] = None
    deadlock_window: int = DEFAULT_DEADLOCK_WINDOW
    fault_hook: Optional[Callable[[int, EngineInstance], None]] = None


@dataclass
class SimulationResult:
    """Outcome of one run: cycles plus final memory contents."""

    cycles: int
    memories: Dict[str, List[int]] = field(default_factory=dict)

    def mem(self, name: str) -> List[int]:
        try:
            return self.memories[name]
        except KeyError:
            raise UndefinedError(f"no memory {name!r} in simulation result") from None


class Testbench:
    """Owns a component instance and runs it to completion.

    ``preflight`` opts into a full lint of the program *before* engine
    construction: error-severity findings (combinational cycles, driver
    races, bad widths, …) surface as a :class:`~repro.errors.LintError`
    with every diagnostic, instead of whichever single failure the engine
    happens to trip over first while building its netlist.
    """

    def __init__(
        self,
        program: Program,
        entrypoint: Optional[str] = None,
        engine: str = DEFAULT_ENGINE,
        preflight: bool = False,
    ):
        if preflight:
            self._preflight(program)
        self.program = program
        self.engine = engine
        name = entrypoint or program.entrypoint
        self.instance = resolve_engine(engine)(program, program.get_component(name))

    @staticmethod
    def _preflight(program: Program) -> None:
        from repro.errors import LintError
        from repro.lint import lint_program  # lazy: lint imports sim

        report = lint_program(program)
        if not report.ok:
            raise LintError(
                f"pre-flight lint failed ({report.summary()}):\n"
                f"{report.format_text()}",
                report=report,
            )

    # -- memory poking ----------------------------------------------------
    def _memory(self, path: str):
        model = self.instance.find_model(path)
        if not isinstance(model, MemModel):
            raise UndefinedError(f"cell {path!r} is not a memory")
        return model

    def write_mem(self, path: str, values: Sequence[int]) -> None:
        """Initialize a memory's backing store (row-major for 2-D)."""
        model = self._memory(path)
        if len(values) != len(model.data):
            raise SimulationError(
                f"memory {path!r} holds {len(model.data)} words, got {len(values)}"
            )
        model.data = [int(v) & ((1 << model.width) - 1) for v in values]
        self.instance.touch(path)

    def read_mem(self, path: str) -> List[int]:
        return list(self._memory(path).data)

    def memory_paths(self) -> List[str]:
        """Dotted paths of all memories directly inside the main component."""
        return [
            name
            for name, child in self.instance.children.items()
            if isinstance(child, MemModel)
        ]

    def register_value(self, path: str) -> int:
        model = self.instance.find_model(path)
        if not isinstance(model, RegModel):
            raise UndefinedError(f"cell {path!r} is not a register")
        return model.value

    # -- execution ---------------------------------------------------------
    def run(
        self,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        watchdog: Optional[Watchdog] = None,
    ) -> SimulationResult:
        """Raise ``go``, clock until ``done``, return cycles and memories.

        The :class:`Watchdog` guards the run; ``max_cycles`` is kept as a
        positional convenience and is overridden by an explicit watchdog.
        """
        dog = watchdog or Watchdog(max_cycles=max_cycles)
        inst = self.instance
        inst.nets[ThisPort(GO)] = 1
        cycles = 0
        deadline = (
            time.monotonic() + dog.wall_clock_seconds
            if dog.wall_clock_seconds is not None
            else None
        )
        last_signature = None
        stalled_cycles = 0
        # ``main``'s done, read by slot: the array is written in place.
        values, done = inst._values, inst.template.done_slot
        while True:
            inst.settle()
            if dog.fault_hook is not None:
                dog.fault_hook(cycles, inst)
            if values[done]:
                break
            if cycles >= dog.max_cycles:
                raise CycleLimitError(
                    f"design did not finish within {dog.max_cycles} cycles",
                    cycles=cycles,
                ).with_state(inst.state_dump())
            if deadline is not None and time.monotonic() > deadline:
                raise WallClockTimeoutError(
                    f"simulation exceeded the wall-clock budget of "
                    f"{dog.wall_clock_seconds}s after {cycles} cycles",
                    seconds=dog.wall_clock_seconds,
                    cycles=cycles,
                ).with_state(inst.state_dump())
            if dog.deadlock_window:
                signature = inst.done_signature()
                if signature == last_signature:
                    stalled_cycles += 1
                    if stalled_cycles >= dog.deadlock_window:
                        stuck = inst.stuck_groups()
                        detail = inst.deadlock_report()
                        raise DeadlockError(
                            f"deadlock: no done signal changed for "
                            f"{stalled_cycles} cycles (at cycle {cycles}); "
                            f"stuck groups: {', '.join(stuck) or '(none)'}"
                            + ("\n" + detail if detail else ""),
                            stuck_groups=stuck,
                            cycles=cycles,
                        ).with_state(inst.state_dump())
                else:
                    stalled_cycles = 0
                    last_signature = signature
            inst.step_edge()
            cycles += 1
        memories = {path: self.read_mem(path) for path in self.memory_paths()}
        return SimulationResult(cycles=cycles, memories=memories)

    def reset(self) -> None:
        self.instance.reset()


def run_program(
    program: Program,
    memories: Optional[Dict[str, Sequence[int]]] = None,
    entrypoint: Optional[str] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    watchdog: Optional[Watchdog] = None,
    engine: str = DEFAULT_ENGINE,
    preflight: bool = False,
) -> SimulationResult:
    """One-shot convenience: build a testbench, load memories, run."""
    bench = Testbench(program, entrypoint, engine=engine, preflight=preflight)
    for path, values in (memories or {}).items():
        bench.write_mem(path, values)
    return bench.run(max_cycles, watchdog=watchdog)
