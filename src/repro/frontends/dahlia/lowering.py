"""Lowering mini-Dahlia to its core (paper Section 6.2, "Lowered Dahlia").

Three transformations, after which only variables, *unpartitioned*
memories, ``while`` loops, conditionals, and the composition operators
remain — the paper's "lowered Dahlia":

1. **Loop unrolling** — ``for (let i = 0..T) unroll U`` becomes a loop of
   ``T/U`` iterations whose body is a :class:`ParBlock` of ``U`` copies,
   with ``i`` substituted by ``outer*U + k`` in copy ``k`` (or just ``k``
   for a full unroll).
2. **Memory partitioning** — a memory banked by ``U`` splits into ``U``
   physical memories (cyclic banking: element ``e`` lives in bank
   ``e % U`` at offset ``e / U``); accesses resolve to their bank
   statically (the type checker guaranteed this is possible).
3. **for → while** — remaining loops become counter + ``while``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TypeError_
from repro.frontends.dahlia.ast import (
    ArrayType,
    AssignMem,
    AssignVar,
    BinOp,
    Decl,
    Expr,
    For,
    IntLit,
    Let,
    MemRead,
    OrderedSeq,
    ParBlock,
    Program,
    Stmt,
    UBit,
    VarRef,
    While,
    map_expr,
    map_stmt,
)
from repro.frontends.dahlia.typecheck import loop_var_width


def bank_name(mem: str, bank: int) -> str:
    return f"{mem}__bk{bank}"


@dataclass
class MemoryLayout:
    """How a logical memory maps onto physical banks.

    ``banked_dim`` is the index of the (single) banked dimension, or None
    when the memory is unpartitioned. ``split``/``merge`` convert between
    the logical row-major value list and per-bank contents — the testbench
    uses them to load inputs and read results.
    """

    name: str
    element_width: int
    dims: List[int]
    banks: int = 1
    banked_dim: Optional[int] = None

    @property
    def size(self) -> int:
        total = 1
        for d in self.dims:
            total *= d
        return total

    def physical_names(self) -> List[str]:
        if self.banks == 1:
            return [self.name]
        return [bank_name(self.name, b) for b in range(self.banks)]

    def split(self, values: List[int]) -> Dict[str, List[int]]:
        """Distribute a row-major value list across physical banks."""
        if len(values) != self.size:
            raise TypeError_(
                f"memory {self.name!r} holds {self.size} words, got {len(values)}"
            )
        if self.banks == 1:
            return {self.name: list(values)}
        assert self.banked_dim is not None
        per_bank: Dict[str, List[int]] = {n: [] for n in self.physical_names()}
        for flat, value in enumerate(values):
            idx = self._unflatten(flat)
            bank = idx[self.banked_dim] % self.banks
            per_bank[bank_name(self.name, bank)].append(value)
        return per_bank

    def merge(self, banks: Dict[str, List[int]]) -> List[int]:
        """Inverse of :meth:`split`: reassemble the logical memory."""
        if self.banks == 1:
            return list(banks[self.name])
        assert self.banked_dim is not None
        counters = {n: 0 for n in self.physical_names()}
        out: List[int] = []
        for flat in range(self.size):
            idx = self._unflatten(flat)
            bank = bank_name(self.name, idx[self.banked_dim] % self.banks)
            out.append(banks[bank][counters[bank]])
            counters[bank] += 1
        return out

    def _unflatten(self, flat: int) -> List[int]:
        idx: List[int] = []
        for d in reversed(self.dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))


@dataclass
class LoweredProgram:
    """Core Dahlia plus the physical memory declarations and layouts."""

    decls: List[Decl]
    body: Stmt
    layouts: Dict[str, MemoryLayout] = field(default_factory=dict)


def _typed_var(name: str, width: int) -> VarRef:
    ref = VarRef(name)
    ref.width = width
    return ref


def _substitute(stmt: Stmt, var: str, replacement: Expr) -> Stmt:
    """``stmt`` with a fresh copy of ``replacement`` for each use of ``var``.

    Loop variables never shadow a visible binding (the type checker
    rejects that), so every use of ``var`` in ``stmt`` is the loop's.
    """

    def swap(expr: Expr) -> Expr:
        if isinstance(expr, VarRef) and expr.name == var:
            return copy.deepcopy(replacement)
        return expr

    return map_stmt(stmt, swap)


class _Lowerer:
    def __init__(self, program: Program):
        self.program = program
        self.layouts: Dict[str, MemoryLayout] = {}

    # -- declarations ----------------------------------------------------
    def lower_decls(self) -> List[Decl]:
        out: List[Decl] = []
        for decl in self.program.decls:
            banked_dims = [i for i, (_, b) in enumerate(decl.type.dims) if b > 1]
            if len(banked_dims) > 1:
                raise TypeError_(
                    f"memory {decl.name!r}: at most one banked dimension is supported"
                )
            dims = [size for size, _ in decl.type.dims]
            if not banked_dims:
                self.layouts[decl.name] = MemoryLayout(
                    decl.name, decl.type.element.width, dims
                )
                out.append(decl)
                continue
            dim = banked_dims[0]
            banks = decl.type.dims[dim][1]
            if dims[dim] % banks:
                raise TypeError_(
                    f"memory {decl.name!r}: bank factor {banks} does not "
                    f"divide dimension {dims[dim]}"
                )
            self.layouts[decl.name] = MemoryLayout(
                decl.name, decl.type.element.width, dims, banks, dim
            )
            bank_dims = list(dims)
            bank_dims[dim] = dims[dim] // banks
            for b in range(banks):
                out.append(
                    Decl(
                        bank_name(decl.name, b),
                        ArrayType(decl.type.element, [(s, 1) for s in bank_dims]),
                    )
                )
        return out

    # -- bank resolution ---------------------------------------------------
    def resolve_banks(
        self, stmt: Stmt, copy_bank: Optional[int] = None, offset_var: Optional[VarRef] = None
    ) -> Stmt:
        """Rewrite banked-memory accesses to physical banks.

        Inside unrolled copy ``copy_bank`` the banked index is known to be
        that copy's lane; elsewhere only constant indices resolve.
        """

        def bank(mem: str, indices: List[Expr]) -> Tuple[str, List[Expr]]:
            layout = self.layouts.get(mem)
            if layout is None or layout.banks == 1:
                return mem, indices
            dim = layout.banked_dim
            assert dim is not None
            idx = indices[dim]
            if isinstance(idx, IntLit):
                target_bank = idx.value % layout.banks
                offset: Expr = IntLit(idx.value // layout.banks)
            elif copy_bank is not None:
                # Inside an unrolled copy: the type checker guaranteed the
                # banked index was exactly the unrolled variable, i.e. lane
                # copy_bank at the outer-counter offset.
                target_bank = copy_bank % layout.banks
                if offset_var is None:
                    offset = IntLit(0)
                else:
                    offset = copy.deepcopy(offset_var)
            else:
                raise TypeError_(
                    f"cannot statically resolve the bank of {mem!r}; banked "
                    "memories must be indexed by unrolled loop variables or "
                    "constants"
                )
            indices = list(indices)
            indices[dim] = offset
            return bank_name(mem, target_bank), indices

        def read(expr: Expr) -> Expr:
            if isinstance(expr, MemRead):
                # map_expr hands over a fresh node, so it may be updated.
                expr.mem, expr.indices = bank(expr.mem, expr.indices)
            return expr

        def write(s: Stmt) -> Optional[Stmt]:
            if not isinstance(s, AssignMem):
                return None
            indices = [map_expr(i, read) for i in s.indices]
            return AssignMem(*bank(s.mem, indices), map_expr(s.value, read))

        return map_stmt(stmt, read, write)

    # -- statement lowering -----------------------------------------------
    def lower_stmt(self, stmt: Stmt) -> Stmt:
        return map_stmt(stmt, pre=lambda s: self.lower_for(s) if isinstance(s, For) else None)

    def lower_for(self, loop: For) -> Stmt:
        body = self.lower_stmt(loop.body)
        trip = loop.end - loop.start
        var_type = loop.var_type or UBit(loop_var_width(loop.end))

        if loop.unroll > 1:
            outer_trips = trip // loop.unroll
            outer_var = f"{loop.var}__u"
            outer_width = loop_var_width(outer_trips)
            copies: List[Stmt] = []
            for k in range(loop.unroll):
                if outer_trips == 1:
                    replacement: Expr = IntLit(k)
                    offset_ref: Optional[VarRef] = None
                else:
                    outer_ref = _typed_var(outer_var, var_type.width)
                    replacement = BinOp(
                        "+", BinOp("*", outer_ref, IntLit(loop.unroll)), IntLit(k)
                    )
                    replacement.width = var_type.width
                    offset_ref = _typed_var(outer_var, outer_width)
                copy_stmt = _substitute(body, loop.var, replacement)
                copies.append(self.resolve_banks(copy_stmt, k, offset_ref))
            par = ParBlock(copies)
            if outer_trips == 1:
                return par
            return self._counter_loop(outer_var, UBit(outer_width), outer_trips, par)

        # Plain loop: for -> while with a counter register.
        if loop.start != 0:
            idx_ref = _typed_var(loop.var, var_type.width)
            shifted = BinOp("+", idx_ref, IntLit(loop.start))
            shifted.width = var_type.width
            body = _substitute(body, loop.var, shifted)
        return self._counter_loop(loop.var, var_type, trip, body)

    def _counter_loop(self, var: str, var_type: UBit, trips: int, body: Stmt) -> Stmt:
        init = Let(var, var_type, IntLit(0))
        cond = BinOp("<", _typed_var(var, var_type.width), IntLit(trips))
        cond.width = 1
        incr_value = BinOp("+", _typed_var(var, var_type.width), IntLit(1))
        incr_value.width = var_type.width
        loop_body = OrderedSeq([body, AssignVar(var, incr_value)])
        return OrderedSeq([init, While(cond, loop_body)])


def lower(program: Program) -> LoweredProgram:
    """Lower a typechecked program to core Dahlia."""
    lowerer = _Lowerer(program)
    decls = lowerer.lower_decls()
    body = lowerer.lower_stmt(program.body)
    # Resolve constant-indexed banked accesses outside unrolled regions.
    body = lowerer.resolve_banks(body)
    return LoweredProgram(decls, body, lowerer.layouts)
