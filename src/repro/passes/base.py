"""Pass framework: the base class, registry, and pass manager."""

from __future__ import annotations

import time
from typing import Dict, List, Type

from repro.errors import PassError
from repro.ir.ast import Component, Program


class Pass:
    """Base class for compiler passes.

    Subclasses set ``name`` and ``description`` and override either
    :meth:`run_component` (per-component rewrites; the common case) or
    :meth:`run` (whole-program passes).
    """

    name: str = "<unnamed>"
    description: str = ""

    def run(self, program: Program) -> None:
        for comp in program.components:
            self.run_component(program, comp)

    def run_component(self, program: Program, comp: Component) -> None:
        raise NotImplementedError(
            f"pass {self.name!r} implements neither run nor run_component"
        )


_REGISTRY: Dict[str, Type[Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator adding a pass to the global registry."""
    if cls.name in _REGISTRY:
        raise PassError(f"duplicate pass name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_pass(name: str) -> Pass:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise PassError(
            f"unknown pass {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def all_pass_names() -> List[str]:
    return sorted(_REGISTRY)


class PassManager:
    """Runs a sequence of passes, recording wall-clock timings.

    Subclasses customize per-pass behavior by overriding :meth:`_run_one`
    (see :class:`repro.robustness.checked.CheckedPassManager`, which adds
    snapshots and post-pass re-validation around it).
    """

    def __init__(self, pass_names: List[str]):
        self.pass_names = list(pass_names)
        self.timings: List[tuple] = []

    def run(self, program: Program, start: int = 0) -> Program:
        """Run the passes from index ``start`` on; earlier ones already ran."""
        for index in range(start, len(self.pass_names)):
            name = self.pass_names[index]
            pass_ = get_pass(name)
            began = time.perf_counter()
            self._run_one(index, name, pass_, program)
            self.timings.append((name, time.perf_counter() - began))
        return program

    def _run_one(
        self, index: int, name: str, pass_: Pass, program: Program
    ) -> None:
        pass_.run(program)

    def total_seconds(self) -> float:
        return sum(elapsed for _, elapsed in self.timings)

    def timings_table(self) -> str:
        """Per-pass wall-clock report (the Section 7.4 compilation stats)."""
        if not self.timings:
            return "no passes ran"
        width = max(len(name) for name, _ in self.timings)
        lines = [
            f"{name:<{width}}  {elapsed * 1000:9.3f} ms"
            for name, elapsed in self.timings
        ]
        lines.append(f"{'total':<{width}}  {self.total_seconds() * 1000:9.3f} ms")
        return "\n".join(lines)
