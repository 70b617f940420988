"""The mini-Dahlia type checker.

Beyond name/shape checking, this enforces the *substructural* discipline
that makes Dahlia programs compile to predictable hardware (paper Section
6.2): every composition and unrolling pattern must be realizable without
port contention:

* statements composed with ``;`` (unordered) must not conflict — no
  write/write or read/write overlap on variables or memories — since the
  backend may run them in parallel,
* a loop ``unroll U`` requires ``U`` to divide the trip count; inside the
  body, banked memory dimensions must be indexed *exactly* by the unrolled
  variable with bank factor ``U`` (the affine-access restriction), other
  dimensions must not mention it, and variables written in the body must
  be declared in the body (each unrolled copy gets its own),
* ``if``/``while`` conditions must be combinational: no multiply, divide,
  or modulo,
* a ``let`` or loop variable may not shadow a binding of an enclosing
  scope: lowering turns each loop into a counter ``let``, which the Calyx
  backend does not scope.

Expression widths are annotated during checking (literals stay flexible
and are sized by the Calyx backend).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import TypeError_
from repro.frontends.dahlia.ast import (
    ArrayType,
    AssignMem,
    AssignVar,
    BinOp,
    COMPARISONS,
    Expr,
    For,
    If,
    IntLit,
    Let,
    MemRead,
    MULTI_CYCLE_OPS,
    OrderedSeq,
    ParBlock,
    Program,
    Stmt,
    UBit,
    UnorderedSeq,
    VarRef,
    While,
    children,
    walk,
    walk_expr,
    walk_exprs,
)


def loop_var_width(end: int) -> int:
    """Default width for a loop counter covering ``0..end``."""
    return max(1, end.bit_length())


class _Env:
    def __init__(self, parent: Optional["_Env"] = None):
        self.parent = parent
        self.vars: Dict[str, UBit] = {}

    def lookup(self, name: str) -> Optional[UBit]:
        if name in self.vars:
            return self.vars[name]
        if self.parent is not None:
            return self.parent.lookup(name)
        return None

    def define(self, name: str, type_: UBit) -> None:
        if name in self.vars:
            raise TypeError_(f"variable {name!r} redefined in the same scope")
        if self.lookup(name) is not None:
            raise TypeError_(
                f"variable {name!r} shadows a binding of an enclosing scope; "
                "rename it"
            )
        self.vars[name] = type_

    def child(self) -> "_Env":
        return _Env(self)


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.memories: Dict[str, ArrayType] = {}
        for decl in program.decls:
            if decl.name in self.memories:
                raise TypeError_(f"memory {decl.name!r} declared twice")
            self.memories[decl.name] = decl.type

    # -- expressions -------------------------------------------------------
    def check_expr(self, expr: Expr, env: _Env) -> Optional[int]:
        """Annotate and return the expression's natural width."""
        if isinstance(expr, IntLit):
            expr.width = None  # flexible: sized by context in the backend
            return None
        if isinstance(expr, VarRef):
            type_ = env.lookup(expr.name)
            if type_ is None:
                raise TypeError_(f"undefined variable {expr.name!r}")
            expr.width = type_.width
            return type_.width
        if isinstance(expr, MemRead):
            expr.width = self._check_access(expr, env, "undefined memory")
            return expr.width
        if isinstance(expr, BinOp):
            left = self.check_expr(expr.left, env)
            right = self.check_expr(expr.right, env)
            width = None
            for w in (left, right):
                if w is not None:
                    width = w if width is None else max(width, w)
            if expr.op in COMPARISONS:
                expr.width = 1
            else:
                expr.width = width
            return expr.width
        raise TypeError_(f"unknown expression {expr!r}")

    # -- access sets for composition checking ----------------------------------
    def _stmt_accesses(self, stmt: Stmt) -> Tuple[Set[str], Set[str]]:
        """(reads, writes) over variable and memory names."""
        reads: Set[str] = set()
        writes: Set[str] = set()
        for expr in walk_exprs(stmt):
            if isinstance(expr, VarRef):
                reads.add(f"v:{expr.name}")
            elif isinstance(expr, MemRead):
                reads.add(f"m:{expr.mem}")
        for s in walk(stmt):
            if isinstance(s, (Let, AssignVar)):
                writes.add(f"v:{s.name}")
            elif isinstance(s, AssignMem):
                writes.add(f"m:{s.mem}")
        return reads, writes

    def _check_unordered(self, stmts: List[Stmt]) -> None:
        sets = [self._stmt_accesses(s) for s in stmts]
        for i in range(len(stmts)):
            for j in range(i + 1, len(stmts)):
                ri, wi = sets[i]
                rj, wj = sets[j]
                if wi & wj:
                    clash = sorted(wi & wj)[0]
                    raise TypeError_(
                        f"unordered statements both write {clash!r}; "
                        "use ordered composition (---)"
                    )
                if (wi & rj) or (wj & ri):
                    clash = sorted((wi & rj) | (wj & ri))[0]
                    raise TypeError_(
                        f"unordered statements conflict on {clash!r}; "
                        "use ordered composition (---)"
                    )
                # Two parallel reads of the same memory contend for its
                # single read port.
                mem_reads = {r for r in ri & rj if r.startswith("m:")}
                if mem_reads:
                    clash = sorted(mem_reads)[0]
                    raise TypeError_(
                        f"unordered statements both read memory {clash[2:]!r} "
                        "(single read port); use ordered composition (---)"
                    )

    # -- unrolling rules ------------------------------------------------------
    def _check_unroll(self, loop: For, env: _Env) -> None:
        trip = loop.end - loop.start
        if loop.unroll <= 0 or trip % loop.unroll != 0:
            raise TypeError_(
                f"unroll {loop.unroll} does not divide trip count {trip} "
                f"of loop over {loop.var!r}"
            )
        if loop.unroll == 1:
            return
        if loop.start != 0:
            raise TypeError_("unrolled loops must start at 0")

        reads = [e for e in walk_exprs(loop.body) if isinstance(e, MemRead)]
        writes = [s for s in walk(loop.body) if isinstance(s, AssignMem)]
        for access in reads + writes:
            self._check_banked_access(access, loop)
        self._check_local_writes(loop.body, loop)

    def _check_banked_access(self, access, loop: For) -> None:
        """``access`` is a :class:`MemRead` or an :class:`AssignMem`."""
        mem_name = access.mem
        mem = self.memories.get(mem_name)
        if mem is None:
            return  # reported elsewhere

        def uses_var(expr: Expr) -> bool:
            return any(isinstance(e, VarRef) and e.name == loop.var for e in walk_expr(expr))

        for (size, banks), idx in zip(mem.dims, access.indices):
            if banks > 1:
                if not (isinstance(idx, VarRef) and idx.name == loop.var):
                    if uses_var(idx):
                        raise TypeError_(
                            f"banked dimension of {mem_name!r} must be indexed "
                            f"directly by the unrolled variable {loop.var!r}"
                        )
                    # Indexed by something loop-invariant: every copy would
                    # hit the same bank.
                    raise TypeError_(
                        f"access to banked memory {mem_name!r} inside loop "
                        f"unrolled by {loop.unroll} must index the banked "
                        f"dimension with {loop.var!r}"
                    )
                if banks != loop.unroll:
                    raise TypeError_(
                        f"memory {mem_name!r} is banked by {banks} but the "
                        f"loop over {loop.var!r} unrolls by {loop.unroll}"
                    )
            else:
                if uses_var(idx):
                    raise TypeError_(
                        f"unbanked dimension of {mem_name!r} indexed by the "
                        f"unrolled variable {loop.var!r}; add a bank "
                        f"annotation (bank {loop.unroll})"
                    )

    def _check_local_writes(self, body: Stmt, loop: For) -> None:
        """Unrolled copies may only write variables they declare."""
        declared: Set[str] = {loop.var}
        for s in walk(body):
            if isinstance(s, Let):
                declared.add(s.name)
            elif isinstance(s, For):
                declared.add(s.var)
            elif isinstance(s, AssignVar) and s.name not in declared:
                raise TypeError_(
                    f"variable {s.name!r} written inside a loop unrolled "
                    f"by {loop.unroll} but declared outside it; each "
                    "unrolled copy needs its own variable"
                )

    # -- statements -------------------------------------------------------
    def check_stmt(self, stmt: Stmt, env: _Env) -> None:
        if isinstance(stmt, Let):
            width = self.check_expr(stmt.init, env)
            if stmt.type is None:
                if width is None:
                    raise TypeError_(
                        f"cannot infer a width for {stmt.name!r}; annotate it"
                    )
                stmt.type = UBit(width)
            env.define(stmt.name, stmt.type)
        elif isinstance(stmt, AssignVar):
            if env.lookup(stmt.name) is None:
                raise TypeError_(f"assignment to undefined variable {stmt.name!r}")
            self.check_expr(stmt.value, env)
        elif isinstance(stmt, AssignMem):
            self._check_access(stmt, env, "write to undefined memory")
            self.check_expr(stmt.value, env)
        elif isinstance(stmt, (If, While)):
            self._check_condition(stmt.cond, env)
            for child in children(stmt):
                self.check_stmt(child, env.child())
        elif isinstance(stmt, For):
            if stmt.var_type is None:
                stmt.var_type = UBit(loop_var_width(stmt.end))
            self._check_unroll(stmt, env)
            inner = env.child()
            inner.define(stmt.var, stmt.var_type)
            self.check_stmt(stmt.body, inner)
        elif isinstance(stmt, (OrderedSeq, UnorderedSeq, ParBlock)):
            for child in stmt.stmts:
                self.check_stmt(child, env)
            if not isinstance(stmt, OrderedSeq):
                self._check_unordered(stmt.stmts)
        else:
            raise TypeError_(f"unknown statement {stmt!r}")

    def _check_access(self, access, env: _Env, undefined: str) -> int:
        """Check a :class:`MemRead` or :class:`AssignMem`'s memory and
        indices; returns the element width."""
        mem = self.memories.get(access.mem)
        if mem is None:
            raise TypeError_(f"{undefined} {access.mem!r}")
        if len(access.indices) != len(mem.dims):
            raise TypeError_(
                f"memory {access.mem!r} has {len(mem.dims)} dimension(s), "
                f"indexed with {len(access.indices)}"
            )
        for idx in access.indices:
            self.check_expr(idx, env)
        return mem.element.width

    def _check_condition(self, cond: Expr, env: _Env) -> None:
        self.check_expr(cond, env)
        for expr in walk_expr(cond):
            if isinstance(expr, BinOp) and expr.op in MULTI_CYCLE_OPS:
                raise TypeError_(
                    f"conditions must be combinational; hoist the {expr.op!r} "
                    "into a let binding"
                )


def typecheck(program: Program) -> Program:
    """Check and annotate a program; raises :class:`TypeError_` on errors."""
    checker = _Checker(program)
    checker.check_stmt(program.body, _Env())
    return program
