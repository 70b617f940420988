"""Resource allocation model for the HLS baseline.

Uses the same cost tables as the Calyx resource estimator
(:mod:`repro.stdlib.costs`) so the two sides are directly comparable. HLS
allocates one functional unit per operator occurrence after unrolling
(multipliers are never shared across unrolled lanes), one register per
scalar variable, memories per declaration, plus a small control overhead —
but none of the per-group multiplexing and guard logic that Calyx designs
carry, which is why Calyx designs come out 10-30% larger (Figures 7b, 8b).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict

from repro.frontends.dahlia.ast import (
    AssignMem,
    AssignVar,
    BinOp,
    COMPARISONS,
    Expr,
    For,
    If,
    Let,
    MemRead,
    OrderedSeq,
    ParBlock,
    Program,
    Stmt,
    UnorderedSeq,
    While,
)
from repro.frontends.dahlia.to_calyx import OP_PRIMITIVES
from repro.stdlib.costs import Resources
from repro.stdlib.primitives import get_primitive

if TYPE_CHECKING:
    from repro.hls.scheduler import HlsConfig

class _Counts:
    """Access/operator counts used for mux and FSM cost estimation."""

    def __init__(self) -> None:
        self.mem_reads: Dict[str, int] = {}
        self.mem_writes: Dict[str, int] = {}
        self.mults = 0
        self.divs = 0


DEFAULT_WIDTH = 32
#: Control FSM overhead as a fraction of datapath LUTs plus a constant.
CONTROL_FRACTION = 0.05
CONTROL_BASE_LUTS = 30


def _expr_width(expr: Expr) -> int:
    return getattr(expr, "width", None) or DEFAULT_WIDTH


def _collect_expr(expr: Expr, factor: int, res: Resources, counts: _Counts) -> None:
    if isinstance(expr, BinOp):
        width = _expr_width(expr) or DEFAULT_WIDTH
        if expr.op in COMPARISONS:
            width = max(_expr_width(expr.left), _expr_width(expr.right))
        elif expr.op == "*":
            counts.mults += factor
        elif expr.op in ("/", "%"):
            counts.divs += factor
        unit = get_primitive(OP_PRIMITIVES[expr.op]).cost((width,))
        for _ in range(factor):
            res.luts += unit.luts
            res.registers += unit.registers
            res.dsps += unit.dsps
            res.brams += unit.brams
        _collect_expr(expr.left, factor, res, counts)
        _collect_expr(expr.right, factor, res, counts)
    elif isinstance(expr, MemRead):
        counts.mem_reads[expr.mem] = counts.mem_reads.get(expr.mem, 0) + factor
        for idx in expr.indices:
            _collect_expr(idx, factor, res, counts)


def _collect_stmt(stmt: Stmt, factor: int, res: Resources, counts: _Counts) -> None:
    if isinstance(stmt, Let):
        width = stmt.type.width if stmt.type else DEFAULT_WIDTH
        res.registers += width * factor
        _collect_expr(stmt.init, factor, res, counts)
    elif isinstance(stmt, AssignVar):
        _collect_expr(stmt.value, factor, res, counts)
    elif isinstance(stmt, AssignMem):
        counts.mem_writes[stmt.mem] = counts.mem_writes.get(stmt.mem, 0) + factor
        for idx in stmt.indices:
            _collect_expr(idx, factor, res, counts)
        _collect_expr(stmt.value, factor, res, counts)
    elif isinstance(stmt, If):
        _collect_expr(stmt.cond, factor, res, counts)
        _collect_stmt(stmt.then, factor, res, counts)
        if stmt.orelse is not None:
            _collect_stmt(stmt.orelse, factor, res, counts)
    elif isinstance(stmt, While):
        _collect_expr(stmt.cond, factor, res, counts)
        _collect_stmt(stmt.body, factor, res, counts)
    elif isinstance(stmt, For):
        width = stmt.var_type.width if stmt.var_type else DEFAULT_WIDTH
        res.registers += width  # the loop counter
        res.luts += math.ceil(width / 2)  # its comparator/increment
        _collect_stmt(stmt.body, factor * stmt.unroll, res, counts)
    elif isinstance(stmt, (OrderedSeq, UnorderedSeq, ParBlock)):
        for child in stmt.stmts:
            _collect_stmt(child, factor, res, counts)


def estimate_hls_resources(program: Program, config: "HlsConfig") -> Resources:
    """Allocate functional units, memories, multiplexing, and control.

    Port multiplexing: sharing ``A`` accesses over ``P`` memory ports
    requires an ``A/P``-way address mux per port (plus a write-data mux
    for stored values); these are the structures Vivado builds when an
    unrolled body out-demands its memories — and they are why the paper's
    HLS baseline is only ~10% smaller than the systolic array despite the
    latter's explicit data-movement registers. Control: a (one-hot) FSM
    costs roughly one LUT and one flip-flop per scheduled state.
    """
    from repro.stdlib.costs import mux_cost

    res = Resources()
    mem_widths: Dict[str, int] = {}
    mem_addr_bits: Dict[str, int] = {}
    for decl in program.decls:
        width = decl.type.element.width
        banks = 1
        size = 1
        for dim, b in decl.type.dims:
            size *= dim
            banks *= b
        per_bank = size // banks
        idx = max(1, (max(per_bank - 1, 1)).bit_length())
        mem_widths[decl.name] = width
        mem_addr_bits[decl.name] = idx
        for _ in range(banks):
            bank_cost = get_primitive("std_mem_d1").cost((width, per_bank, idx))
            res.luts += bank_cost.luts
            res.registers += bank_cost.registers
            res.brams += bank_cost.brams

    counts = _Counts()
    _collect_stmt(program.body, 1, res, counts)

    # Memory-port multiplexing.
    for mem in sorted(set(counts.mem_reads) | set(counts.mem_writes)):
        ports = config.mem_ports
        reads = counts.mem_reads.get(mem, 0)
        writes = counts.mem_writes.get(mem, 0)
        addr = mem_addr_bits.get(mem, 4)
        width = mem_widths.get(mem, DEFAULT_WIDTH)
        per_port = math.ceil((reads + writes) / ports)
        res.charge("port-mux", luts=ports * mux_cost(addr, per_port))
        if writes > 1:
            res.charge("wdata-mux", luts=mux_cost(width, writes))

    # FSM: one state per scheduled operation group.
    states = (
        counts.mults * config.mult_latency
        + counts.divs * config.div_latency
        + sum(
            math.ceil(
                (counts.mem_reads.get(m, 0) + counts.mem_writes.get(m, 0))
                / config.mem_ports
            )
            for m in set(counts.mem_reads) | set(counts.mem_writes)
        )
    )
    res.charge("fsm", luts=states, registers=states)

    res.luts += res.luts * CONTROL_FRACTION + CONTROL_BASE_LUTS
    return res
