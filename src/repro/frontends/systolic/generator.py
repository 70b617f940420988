"""The systolic array generator (paper Section 6.1).

Generates a Calyx program computing ``C = A x B`` on an ``rows x cols``
grid of processing elements with inner dimension ``inner``:

* one input memory per matrix row (``l0..``) and per matrix column
  (``t0..``), as in the paper's Figure 5,
* *data movement* groups: edge groups load memories into the first
  row/column of registers (advancing a per-memory index register), and
  fabric groups shift register values down and right between PEs,
* *compute* groups drive each PE through the go/done calling convention,
* the control program is the wavefront schedule of Figure 6 — a ``seq``
  of time steps, each a ``par`` of data movements followed by a ``par``
  of PE activations; PE ``(r, c)`` performs its ``k``-th MAC at step
  ``r + c + k``,
* a final drain phase writes every PE's accumulator to the ``out`` memory.

The generator emits no ``"static"`` annotations; with the PE's latency
inferred (Section 5.3), the entire array compiles latency-sensitively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.ir.ast import Program
from repro.ir.builder import (
    Builder,
    CellHandle,
    ComponentBuilder,
    GroupBuilder,
    const,
)
from repro.ir.control import Control, Enable, Par, Seq
from repro.ir.guards import NotGuard, PortGuard
from repro.frontends.systolic.pe import mac_pe


@dataclass
class SystolicConfig:
    """Array dimensions: ``C[rows x cols] = A[rows x inner] * B[inner x cols]``."""

    rows: int
    cols: int
    inner: int
    width: int = 32

    @classmethod
    def square(cls, n: int, width: int = 32) -> "SystolicConfig":
        return cls(rows=n, cols=n, inner=n, width=width)

    def validate(self) -> None:
        if min(self.rows, self.cols, self.inner) < 1:
            raise ValidationError("systolic dimensions must be positive")


def _idx_bits(size: int) -> int:
    return max(1, (size - 1).bit_length())


def generate_systolic_array(
    config: SystolicConfig,
    pe_builder: Optional[Callable[[Builder], ComponentBuilder]] = None,
) -> Program:
    """Generate the full Calyx program for one systolic array."""
    config.validate()
    rows, cols, inner, width = config.rows, config.cols, config.inner, config.width
    builder = Builder()
    pe_comp = (pe_builder or mac_pe)(builder)
    main = builder.component("main")

    # -- cells ----------------------------------------------------------
    mem_bits = _idx_bits(inner)
    left_mems = [
        main.mem_d1(f"l{r}", width, inner, mem_bits, external=True) for r in range(rows)
    ]
    top_mems = [
        main.mem_d1(f"t{c}", width, inner, mem_bits, external=True) for c in range(cols)
    ]
    out_bits = _idx_bits(rows * cols)
    out_mem = main.mem_d1("out", width, rows * cols, out_bits, external=True)

    pes: Dict[Tuple[int, int], CellHandle] = {}
    top_regs: Dict[Tuple[int, int], CellHandle] = {}
    left_regs: Dict[Tuple[int, int], CellHandle] = {}
    for r in range(rows):
        for c in range(cols):
            pes[(r, c)] = main.cell(f"pe_{r}{c}", pe_comp.name)
            top_regs[(r, c)] = main.reg(f"top_{r}{c}", width)
            left_regs[(r, c)] = main.reg(f"left_{r}{c}", width)
    top_idx = [main.reg(f"t{c}_idx", mem_bits) for c in range(cols)]
    left_idx = [main.reg(f"l{r}_idx", mem_bits) for r in range(rows)]
    top_adds = [main.add(f"t{c}_add", mem_bits) for c in range(cols)]
    left_adds = [main.add(f"l{r}_add", mem_bits) for r in range(rows)]

    # -- data movement groups ------------------------------------------------
    def feed_group(
        name: str,
        mem: CellHandle,
        idx: CellHandle,
        add: CellHandle,
        target: CellHandle,
    ) -> GroupBuilder:
        """Load ``mem[idx]`` into ``target`` and bump the index register."""
        with main.group(name) as g:
            g.assign(mem.addr0, idx.out)
            g.assign(target.in_, mem.read_data)
            g.assign(target.write_en, 1)
            g.assign(add.left, idx.out)
            g.assign(add.right, const(mem_bits, 1))
            g.assign(idx.in_, add.out)
            g.assign(idx.write_en, 1)
            g.done(target.done)
        return g

    def move_group(name: str, src: CellHandle, dst: CellHandle) -> GroupBuilder:
        with main.group(name) as g:
            g.assign(dst.in_, src.out)
            g.assign(dst.write_en, 1)
            g.done(dst.done)
        return g

    feed_top = [
        feed_group(f"t{c}", top_mems[c], top_idx[c], top_adds[c], top_regs[(0, c)])
        for c in range(cols)
    ]
    feed_left = [
        feed_group(f"l{r}", left_mems[r], left_idx[r], left_adds[r], left_regs[(r, 0)])
        for r in range(rows)
    ]
    move_down = {
        (r, c): move_group(f"down_{r}{c}", top_regs[(r, c)], top_regs[(r + 1, c)])
        for r in range(rows - 1)
        for c in range(cols)
    }
    move_right = {
        (r, c): move_group(f"right_{r}{c}", left_regs[(r, c)], left_regs[(r, c + 1)])
        for r in range(rows)
        for c in range(cols - 1)
    }

    # -- compute groups ----------------------------------------------------
    compute: Dict[Tuple[int, int], GroupBuilder] = {}
    for (r, c), pe in pes.items():
        with main.group(f"pe_go_{r}{c}") as g:
            g.assign(pe.port("top"), top_regs[(r, c)].out)
            g.assign(pe.port("left"), left_regs[(r, c)].out)
            g.assign(pe.port("go"), 1, guard=NotGuard(PortGuard(pe.port("done"))))
            g.done(pe.port("done"))
        compute[(r, c)] = g

    # -- drain groups -----------------------------------------------------
    drain: List[GroupBuilder] = []
    for r in range(rows):
        for c in range(cols):
            with main.group(f"drain_{r}{c}") as g:
                g.assign(out_mem.addr0, const(out_bits, r * cols + c))
                g.assign(out_mem.write_data, pes[(r, c)].port("out"))
                g.assign(out_mem.write_en, 1)
                g.done(out_mem.done)
            drain.append(g)

    # -- the wavefront schedule (Figure 6) -----------------------------------
    def active(r: int, c: int, step: int) -> bool:
        """Does PE (r, c) compute at this step?"""
        k = step - r - c
        return 0 <= k < inner

    steps: List[Control] = []
    total_steps = rows + cols + inner - 2
    for step in range(total_steps):
        moves: List[Control] = []
        # Fabric shifts run before the edge feeds in program order, but all
        # movement groups execute in one par and read pre-edge values, so
        # the order is immaterial: this is a synchronous shift.
        for r in range(rows - 1, 0, -1):
            for c in range(cols):
                if active(r, c, step):
                    moves.append(Enable(move_down[(r - 1, c)].name))
        for c in range(cols - 1, 0, -1):
            for r in range(rows):
                if active(r, c, step):
                    moves.append(Enable(move_right[(r, c - 1)].name))
        for c in range(cols):
            if active(0, c, step):
                moves.append(Enable(feed_top[c].name))
        for r in range(rows):
            if active(r, 0, step):
                moves.append(Enable(feed_left[r].name))
        computes = [
            Enable(compute[(r, c)].name)
            for r in range(rows)
            for c in range(cols)
            if active(r, c, step)
        ]
        if moves:
            steps.append(Par(moves))
        if computes:
            steps.append(Par(computes))

    schedule = Seq(steps + [Enable(g.name) for g in drain])
    main.control = schedule
    return builder.program
