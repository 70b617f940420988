"""Cycle-accurate Python simulation models for standard-library primitives.

These models stand in for the Verilog implementations the Calyx compiler
links against; the simulator (:mod:`repro.sim`) drives them with RTL
semantics — a combinational settle phase (:meth:`PrimitiveModel.comb`)
followed by a clock edge (:meth:`PrimitiveModel.tick`).

``tick`` reports whether the edge moved any state ``comb`` can see: it
returns ``False`` only if ``comb`` now returns, for every input vector,
what it returned before the edge. After an edge the simulator
re-evaluates a child unless its tick returned ``False``; ``None``, from
an extern model whose tick returns nothing, re-evaluates it too. State
that ``comb`` never reads (a pipelined unit's cycle counter) may change
under a ``False``.

Ports are positional, like the wires of an RTL module: ``ins`` holds the
values of the cell signature's input ports and ``comb`` returns one value
per output port, each in the order :func:`port_names` gives — for a
primitive the order its :mod:`repro.stdlib.primitives` entry declares, for
an extern the order of its declaration. Each primitive's entry names the
model class below that simulates it; :data:`EXTERN_MODELS` does the same
for externs.

Each model also reports its *combinational dependencies* by port name:
which output ports depend combinationally on which input ports. The
simulator uses this to levelize netlists and the linter to find
combinational cycles (:func:`comb_paths`).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.ir.types import Direction, PortDef


def mask(width: int) -> int:
    """Bit mask for a ``width``-bit value."""
    return (1 << width) - 1


def port_names(sig: Dict[str, PortDef]) -> Tuple[List[str], List[str]]:
    """A signature's input and output port names, in protocol order."""
    inputs = [p.name for p in sig.values() if p.direction is Direction.INPUT]
    outputs = [p.name for p in sig.values() if p.direction is Direction.OUTPUT]
    return inputs, outputs


class PrimitiveModel:
    """Base class for primitive simulation models.

    Subclasses define:

    * ``comb(ins) -> outs`` — combinational output values as a function of
      the input values and the current internal state,
    * ``tick(ins)`` — state update at the clock edge, returning ``False``
      only when no ``comb`` output can differ from before the edge,
    * ``comb_deps`` — dict mapping each output port name to the input port
      names it reads combinationally (empty list for registered outputs),
    * optionally ``enable`` — the name of an input port that arms ``tick``.

    A model that declares ``enable`` promises: after a tick that saw
    ``enable`` low and returned ``False``, a further tick with ``enable``
    low, whatever its other inputs, changes no state and returns ``False``
    again. The levelized simulator skips such ticks.
    """

    #: class-level default overridden where a model's outputs are known
    comb_deps: Dict[str, List[str]] = {}
    #: the input port without which a tick is idle; ``None``: ticked every edge
    enable: Optional[str] = None

    def __init__(self, args: Sequence[int]):
        self.args = tuple(int(a) for a in args)

    def comb(self, ins: Sequence[int]) -> Sequence[int]:
        raise NotImplementedError

    def tick(self, ins: Sequence[int]) -> Optional[bool]:
        """Clock edge; combinational-only primitives do nothing."""
        return False

    def reset(self) -> None:
        """Return the model to its power-on state."""


def comb_paths(
    model: PrimitiveModel, sig: Dict[str, PortDef]
) -> Tuple[List[Tuple[str, str]], bool]:
    """A model's combinational ``(input, output)`` paths, and whether declared.

    A model that declares no ``comb_deps`` is treated as fully
    combinational — every input reaches every output — which is safe for
    extern models written without them.
    """
    deps = model.comb_deps
    if deps:
        return [(i, o) for o, ins in sorted(deps.items()) for i in ins], True
    inputs, outputs = port_names(sig)
    return [(i, o) for i in inputs for o in outputs], False


# ---------------------------------------------------------------------------
# Combinational operators
# ---------------------------------------------------------------------------


class BinOpModel(PrimitiveModel):
    """Two-input combinational operator with a Python function body."""

    comb_deps = {"out": ["left", "right"]}

    def __init__(self, args: Sequence[int], fn: Callable[[int, int, int], int], out_width: Optional[int] = None):
        super().__init__(args)
        self.width = self.args[0]
        self.out_mask = mask(self.width if out_width is None else out_width)
        self.fn = fn

    def comb(self, ins: Sequence[int]) -> Sequence[int]:
        return (self.fn(ins[0], ins[1], self.width) & self.out_mask,)


class TruncModel(PrimitiveModel):
    """``std_wire``, ``std_slice`` and ``std_pad``: the input masked to the
    output width, which is the last parameter of each."""

    comb_deps = {"out": ["in"]}

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.out_mask = mask(self.args[-1])

    def comb(self, ins: Sequence[int]) -> Sequence[int]:
        return (ins[0] & self.out_mask,)


class ConstModel(PrimitiveModel):
    comb_deps = {"out": []}

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        width, value = self.args
        self.outs = (value & mask(width),)

    def comb(self, ins: Sequence[int]) -> Sequence[int]:
        return self.outs


class NotModel(PrimitiveModel):
    comb_deps = {"out": ["in"]}

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.out_mask = mask(self.args[0])

    def comb(self, ins: Sequence[int]) -> Sequence[int]:
        return (~ins[0] & self.out_mask,)


# ---------------------------------------------------------------------------
# Stateful primitives
# ---------------------------------------------------------------------------


class RegModel(PrimitiveModel):
    """``std_reg``: value and done flag both update at the clock edge.

    ``done`` is high for exactly the cycle following a committed write,
    matching the standard Calyx register implementation.
    """

    comb_deps = {"out": [], "done": []}
    enable = "write_en"

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.width = self.args[0]
        self.value = 0
        self.done = 0

    def comb(self, ins: Sequence[int]) -> Sequence[int]:
        return (self.value, self.done)

    def tick(self, ins: Sequence[int]) -> bool:
        value, write_en = ins
        if write_en:
            self.value = value & mask(self.width)
            self.done = 1
            return True
        if self.done:
            self.done = 0
            return True
        return False

    def reset(self) -> None:
        self.value = 0
        self.done = 0


class MemModel(PrimitiveModel):
    """``std_mem_d1`` and ``std_mem_d2``: combinational read, synchronous
    write, row-major storage.

    The parameters are ``WIDTH``, one size per dimension, then one index
    width per dimension; the inputs are one address per dimension, then
    ``write_data`` and ``write_en``.
    """

    enable = "write_en"

    def __init__(self, args: Sequence[int]):
        super().__init__(args)
        self.width = self.args[0]
        rank = (len(self.args) - 1) // 2
        self.dims = self.args[1 : 1 + rank]
        self.data = [0] * math.prod(self.dims)
        self.done = 0
        self.comb_deps = {
            "read_data": [f"addr{i}" for i in range(rank)],
            "done": [],
        }

    def _index(self, ins: Sequence[int]) -> int:
        """Row-major index of the leading address inputs; -1 if out of bounds."""
        index = 0
        for addr, size in zip(ins, self.dims):
            if addr >= size:
                # Out-of-bounds reads return 0 rather than crashing:
                # lowered designs legitimately present don't-care
                # addresses while a group is inactive.
                return -1
            index = index * size + addr
        return index

    def comb(self, ins: Sequence[int]) -> Sequence[int]:
        idx = self._index(ins)
        return (self.data[idx] if idx >= 0 else 0, self.done)

    def tick(self, ins: Sequence[int]) -> bool:
        if ins[-1]:
            idx = self._index(ins)
            if idx < 0:
                addrs = tuple(ins[: len(self.dims)])
                where = (
                    f"addr={addrs[0]} size={self.dims[0]}"
                    if len(addrs) == 1
                    else f"addr={addrs}"
                )
                raise SimulationError(
                    f"std_mem_d{len(addrs)} write out of bounds: {where}"
                )
            self.data[idx] = ins[-2] & mask(self.width)
            self.done = 1
            return True
        if self.done:
            self.done = 0
            return True
        return False

    def reset(self) -> None:
        self.data = [0] * len(self.data)
        self.done = 0


class PipelinedOpModel(PrimitiveModel):
    """A fixed-latency sequential unit driven by the go/done convention.

    While ``go`` (the last input) is held high the unit counts cycles;
    after ``latency`` ticks it latches the values :meth:`compute` returns
    and raises ``done`` (the last output) for one cycle. Dropping ``go``
    resets the pipeline. Every output is registered, so ``comb_deps``
    lists each with no inputs, and a tick that only moves the counter
    returns ``False``.
    """

    comb_deps = {"out": [], "done": []}
    enable = "go"

    def __init__(self, args: Sequence[int], latency: Optional[int] = None):
        super().__init__(args)
        self.width = self.args[0]
        self.latency = latency
        self.reset()

    def compute(self, ins: Sequence[int]) -> Tuple[int, ...]:
        """The result outputs (every output but ``done``) for ``ins``."""
        raise NotImplementedError

    def comb(self, ins: Sequence[int]) -> Sequence[int]:
        return self.latched + (self.done,)

    def tick(self, ins: Sequence[int]) -> bool:
        if self.done:
            self.done = 0
            self.counter = 0
            return True
        if ins[-1]:
            self.counter += 1
            if self.counter >= self._effective_latency(ins):
                out_mask = mask(self.width)
                self.latched = tuple(v & out_mask for v in self.compute(ins))
                self.done = 1
                return True
        else:
            self.counter = 0
        return False

    def _effective_latency(self, ins: Sequence[int]) -> int:
        return self.latency

    def reset(self) -> None:
        self.counter = 0
        self.done = 0
        self.latched = (0,) * (len(self.comb_deps) - 1)


class MultPipeModel(PipelinedOpModel):
    def compute(self, ins: Sequence[int]) -> Tuple[int, ...]:
        return (ins[0] * ins[1],)


class DivPipeModel(PipelinedOpModel):
    comb_deps = {"out_quotient": [], "out_remainder": [], "done": []}

    def compute(self, ins: Sequence[int]) -> Tuple[int, ...]:
        left, right = ins[0], ins[1]
        if right == 0:
            # Divide-by-zero mirrors hardware: all-ones quotient.
            return (mask(self.width), left)
        return (left // right, left % right)


class SqrtModel(PipelinedOpModel):
    """Integer square root with data-dependent latency.

    The latency grows with the operand's bit length (one cycle per result
    bit, as in a classic non-restoring implementation), so no ``"static"``
    attribute can describe it — exercising mixed latency-sensitive /
    latency-insensitive compilation (paper Section 6.2).
    """

    def compute(self, ins: Sequence[int]) -> Tuple[int, ...]:
        return (math.isqrt(ins[0]),)

    def _effective_latency(self, ins: Sequence[int]) -> int:
        return max(1, ins[0].bit_length() // 2 + 1)


#: Behaviours registered for extern (black-box) components, keyed by the
#: extern component's name. Tests and users may extend this; a model reads
#: and returns ports in the extern declaration's order.
EXTERN_MODELS: Dict[str, Callable[[Sequence[int]], PrimitiveModel]] = {}

