"""Static scheduling model of Vivado HLS.

The model captures the two scheduling regimes that drive every comparison
in the paper's evaluation:

**Pipelined loops.** The Dahlia-to-HLS flow requests pipelining for
innermost loops, so their latency is ``depth + II * (trip - 1)`` where the
initiation interval II is bounded below by memory-port contention (each
BRAM has ``mem_ports`` ports, scaled by its banking/partition factor) and
by loop-carried recurrences through memory (a read-modify-write of the
same array costs read latency + write = 3 cycles per iteration).

**Non-pipelined loops.** Without a pipeline request — notably the paper's
matrix-multiply baseline, a "straightforward kernel that fully unrolls the
outer two loops" with no pragmas on the remaining loop — Vivado schedules
the body as a sequential FSM: multi-cycle operations do not overlap across
statements, so every unrolled multiply pays its full latency and memory
accesses serialize on ports. This is what makes the HLS baseline fall
behind the systolic array as sizes grow (Figure 7a).

Loop bodies are analyzed after (virtually) applying ``unroll`` factors:
an unrolled body multiplies access counts and operator counts, while
banked memories multiply available ports — exactly how ARRAY_PARTITION
pragmas behave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import TypeError_
from repro.frontends.dahlia.ast import (
    AssignMem,
    AssignVar,
    BinOp,
    Expr,
    For,
    If,
    IntLit,
    Let,
    MemRead,
    OrderedSeq,
    ParBlock,
    Program,
    Stmt,
    UnorderedSeq,
    VarRef,
    While,
    exprs,
    walk,
    walk_expr,
)
from repro.hls.report import HlsReport
from repro.hls.resources import estimate_hls_resources


@dataclass
class HlsConfig:
    """Tunable parameters of the HLS model (defaults match DESIGN.md)."""

    mem_ports: int = 2  # dual-port BRAM
    mult_latency: int = 4
    div_latency: int = 4
    mem_read_latency: int = 1
    loop_overhead: int = 2  # entry/exit states per loop
    pipeline_innermost: bool = True
    #: Recurrence II for an array read-modify-write: read + compute + write.
    mem_recurrence_ii: int = 3


class _BodyStats:
    """Access and operator counts of one (virtually unrolled) loop body."""

    def __init__(self) -> None:
        self.mem_reads: Dict[str, Set[str]] = {}  # memory -> distinct read keys
        self.mem_read_count: Dict[str, int] = {}
        self.mem_writes: Dict[str, int] = {}
        self.mults = 0
        self.divs = 0
        self.statements = 0
        self.expr_depth_total = 0

    def record_read(self, mem: str, key: str) -> None:
        self.mem_reads.setdefault(mem, set()).add(key)
        self.mem_read_count[mem] = self.mem_read_count.get(mem, 0) + 1

    def record_write(self, mem: str) -> None:
        self.mem_writes[mem] = self.mem_writes.get(mem, 0) + 1

    def accesses(self, mem: str) -> int:
        # Identical reads are CSE'd by the scheduler; writes never merge.
        return len(self.mem_reads.get(mem, ())) + self.mem_writes.get(mem, 0)

    def memories(self) -> Set[str]:
        return set(self.mem_reads) | set(self.mem_writes)


def _expr_key(expr: Expr) -> str:
    """Structural key for common-subexpression detection."""
    if isinstance(expr, IntLit):
        return f"#{expr.value}"
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, MemRead):
        inner = ",".join(_expr_key(i) for i in expr.indices)
        return f"{expr.mem}[{inner}]"
    if isinstance(expr, BinOp):
        return f"({_expr_key(expr.left)}{expr.op}{_expr_key(expr.right)})"
    return repr(expr)


class _Scheduler:
    def __init__(self, program: Program, config: HlsConfig):
        self.program = program
        self.config = config
        self.banks: Dict[str, int] = {}
        for decl in program.decls:
            factor = 1
            for _, b in decl.type.dims:
                factor *= b
            self.banks[decl.name] = factor

    # -- expression metrics ----------------------------------------------------
    def expr_depth(self, expr: Expr) -> int:
        """Critical path in cycles; combinational ops chain for free."""
        if isinstance(expr, IntLit) or isinstance(expr, VarRef):
            return 0
        if isinstance(expr, MemRead):
            idx = max((self.expr_depth(i) for i in expr.indices), default=0)
            return idx + self.config.mem_read_latency
        if isinstance(expr, BinOp):
            depth = max(self.expr_depth(expr.left), self.expr_depth(expr.right))
            if expr.op == "*":
                return depth + self.config.mult_latency
            if expr.op in ("/", "%"):
                return depth + self.config.div_latency
            return depth  # chained combinationally
        return 0

    def _assign_depth(self, stmt: Stmt) -> int:
        """Cycles of a ``Let``, ``AssignVar`` or ``AssignMem``: its value's
        critical path (at least one cycle), plus one for a memory write."""
        value = exprs(stmt)[-1]  # evaluated after any indices
        return max(1, self.expr_depth(value)) + (1 if isinstance(stmt, AssignMem) else 0)

    def _collect_expr(self, expr: Expr, stats: _BodyStats) -> None:
        for node in walk_expr(expr):
            if isinstance(node, MemRead):
                stats.record_read(node.mem, _expr_key(node))
            elif isinstance(node, BinOp) and node.op == "*":
                stats.mults += 1
            elif isinstance(node, BinOp) and node.op in ("/", "%"):
                stats.divs += 1

    # -- body statistics (with virtual unrolling) ----------------------------
    def collect_body(self, stmt: Stmt, stats: _BodyStats, factor: int = 1) -> None:
        """Accumulate stats; ``factor`` is the unroll multiplicity."""
        if isinstance(stmt, (Let, AssignVar, AssignMem)):
            single = _BodyStats()
            for expr in exprs(stmt):
                self._collect_expr(expr, single)
            if isinstance(stmt, AssignMem):
                single.record_write(stmt.mem)
            self._merge(stats, single, factor)
            stats.statements += factor
            stats.expr_depth_total += factor * self._assign_depth(stmt)
        elif isinstance(stmt, If):
            self._collect_expr(stmt.cond, stats)
            self.collect_body(stmt.then, stats, factor)
            if stmt.orelse is not None:
                self.collect_body(stmt.orelse, stats, factor)
        elif isinstance(stmt, For):
            self.collect_body(stmt.body, stats, factor * stmt.unroll)
        elif isinstance(stmt, While):
            self.collect_body(stmt.body, stats, factor)
        elif isinstance(stmt, (OrderedSeq, UnorderedSeq, ParBlock)):
            for child in stmt.stmts:
                self.collect_body(child, stats, factor)

    @staticmethod
    def _merge(into: _BodyStats, single: "_BodyStats", factor: int) -> None:
        for mem, keys in single.mem_reads.items():
            # Reads whose key mentions the unrolled variable differ per
            # copy; conservatively scale distinct reads by the factor
            # except exact duplicates within one statement.
            into.mem_reads.setdefault(mem, set())
            for i in range(factor):
                for key in keys:
                    into.mem_reads[mem].add(f"{key}@{i}" if factor > 1 else key)
        for mem, count in single.mem_writes.items():
            into.mem_writes[mem] = into.mem_writes.get(mem, 0) + count * factor
        into.mults += single.mults * factor
        into.divs += single.divs * factor

    # -- loop scheduling -------------------------------------------------------
    def _loop_carried_recurrence(self, stats: _BodyStats) -> bool:
        """Any memory both read and written: a read-modify-write chain."""
        return any(
            mem in stats.mem_writes and stats.mem_reads.get(mem)
            for mem in stats.memories()
        )

    def schedule_innermost(self, loop: For, factor: int = 1) -> Tuple[int, str]:
        """Schedule an innermost loop whose body is replicated ``factor``
        times by enclosing unrolled loops (plus its own unroll)."""
        config = self.config
        trip = (loop.end - loop.start) // loop.unroll
        stats = _BodyStats()
        self.collect_body(loop.body, stats, loop.unroll * factor)
        depth = self._body_depth(loop.body, loop.unroll)

        if config.pipeline_innermost:
            port_ii = 1
            for mem in stats.memories():
                ports = config.mem_ports * self.banks.get(mem, 1)
                port_ii = max(port_ii, math.ceil(stats.accesses(mem) / ports))
            rec_ii = config.mem_recurrence_ii if self._loop_carried_recurrence(stats) else 1
            ii = max(1, port_ii, rec_ii)
            latency = depth + ii * max(0, trip - 1) + config.loop_overhead
            return latency, f"pipelined II={ii} depth={depth} trip={trip}"

        # Sequential FSM: multi-cycle ops do not overlap across statements.
        states = self._sequential_states(stats)
        latency = trip * states + config.loop_overhead
        return latency, f"sequential states={states} trip={trip}"

    def _sequential_states(self, stats: _BodyStats) -> int:
        config = self.config
        states = 0
        for mem in stats.memories():
            ports = config.mem_ports * self.banks.get(mem, 1)
            states += math.ceil(stats.accesses(mem) / ports)
        states += stats.mults * config.mult_latency
        states += stats.divs * config.div_latency
        return max(1, states)

    def _body_depth(self, stmt: Stmt, unroll: int) -> int:
        """Pipeline depth: critical path through the body."""
        if isinstance(stmt, (Let, AssignVar, AssignMem)):
            return self._assign_depth(stmt)
        if isinstance(stmt, If):
            depth = max(1, self.expr_depth(stmt.cond))
            branches = [self._body_depth(stmt.then, unroll)]
            if stmt.orelse is not None:
                branches.append(self._body_depth(stmt.orelse, unroll))
            return depth + max(branches)
        if isinstance(stmt, OrderedSeq):
            return sum(self._body_depth(s, unroll) for s in stmt.stmts)
        if isinstance(stmt, (UnorderedSeq, ParBlock)):
            return max(
                (self._body_depth(s, unroll) for s in stmt.stmts), default=1
            )
        if isinstance(stmt, For):
            inner, _ = self.schedule_loop(stmt)
            return inner
        return 1

    # -- statement scheduling --------------------------------------------------
    def schedule_loop(self, loop: For, factor: int = 1) -> Tuple[int, str]:
        """Schedule a loop; ``factor`` is the replication multiplicity from
        enclosing unrolled loops.

        An unrolled loop around an inner nest behaves as Vivado's unroller
        does: the copies fuse into the surviving inner loops, multiplying
        their per-iteration resource demands (reads are conservatively not
        CSE'd across unrolled lanes).
        """
        if not any(isinstance(s, (For, While)) for s in walk(loop.body)):
            return self.schedule_innermost(loop, factor)
        trip = (loop.end - loop.start) // loop.unroll
        body = self.schedule_stmt(loop.body, factor * loop.unroll)
        latency = trip * (body + self.config.loop_overhead)
        return latency, f"outer trip={trip} body={body}"

    def schedule_stmt(self, stmt: Stmt, factor: int = 1) -> int:
        if isinstance(stmt, (Let, AssignVar, AssignMem)):
            return self._assign_depth(stmt)
        if isinstance(stmt, If):
            branches = [self.schedule_stmt(stmt.then, factor)]
            if stmt.orelse is not None:
                branches.append(self.schedule_stmt(stmt.orelse, factor))
            return 1 + max(branches)
        if isinstance(stmt, While):
            raise TypeError_(
                "the HLS model needs static trip counts; use for loops"
            )
        if isinstance(stmt, For):
            latency, _ = self.schedule_loop(stmt, factor)
            return latency
        if isinstance(stmt, OrderedSeq):
            return sum(self.schedule_stmt(s, factor) for s in stmt.stmts)
        if isinstance(stmt, (UnorderedSeq, ParBlock)):
            return max((self.schedule_stmt(s, factor) for s in stmt.stmts), default=0)
        return 0

    def run(self) -> HlsReport:
        latency = self.schedule_stmt(self.program.body) + self.config.loop_overhead
        resources = estimate_hls_resources(self.program, self.config)
        return HlsReport(latency_cycles=latency, resources=resources)


def schedule_program(program: Program, config: Optional[HlsConfig] = None) -> HlsReport:
    """Produce the HLS report (latency + resources) for a Dahlia kernel."""
    return _Scheduler(program, config or HlsConfig()).run()
