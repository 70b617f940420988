"""Abstract syntax for mini-Dahlia.

A program is a list of memory declarations followed by a statement. The
composition statements mirror Dahlia's novel operators: :class:`OrderedSeq`
(``---``) imposes sequencing; :class:`UnorderedSeq` (``;``) permits
parallel execution, which the Calyx backend exploits with ``par``.

Each node class names the fields that hold its sub-nodes, in evaluation
order: ``OPERANDS`` for an expression, ``EXPRS`` (the expressions a
statement itself evaluates) and ``BODY`` (its nested statements) for a
statement. :func:`walk`, :func:`walk_expr`, :func:`map_expr` and
:func:`map_stmt` are the one traversal every pass that only visits or
rebuilds the tree goes through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass
class UBit:
    """Unsigned integer of a fixed bit width: ``ubit<W>``."""

    width: int

    def __str__(self) -> str:
        return f"ubit<{self.width}>"


@dataclass
class ArrayType:
    """A memory: element type plus per-dimension (size, banking factor)."""

    element: UBit
    dims: List[Tuple[int, int]]  # (size, banks) per dimension

    def __str__(self) -> str:
        dims = "".join(
            f"[{size} bank {banks}]" if banks > 1 else f"[{size}]"
            for size, banks in self.dims
        )
        return f"{self.element}{dims}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class; ``width`` is filled in by the type checker."""

    OPERANDS = ()  # names of the fields holding sub-expressions

    def __post_init__(self) -> None:
        self.width: Optional[int] = None


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class VarRef(Expr):
    name: str


@dataclass
class MemRead(Expr):
    mem: str
    indices: List[Expr]

    OPERANDS = ("indices",)


@dataclass
class BinOp(Expr):
    op: str  # + - * / % << >> < > <= >= == !=
    left: Expr
    right: Expr

    OPERANDS = ("left", "right")


COMPARISONS = ("<", ">", "<=", ">=", "==", "!=")
MULTI_CYCLE_OPS = ("*", "/", "%")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    EXPRS = ()  # names of the fields holding the statement's expressions
    BODY = ()  # names of the fields holding nested statements


@dataclass
class Decl(Stmt):
    """Top-level memory declaration: ``decl A: ubit<32>[8];``"""

    name: str
    type: ArrayType


@dataclass
class Let(Stmt):
    """``let x: ubit<32> = e;`` — introduces a register-backed variable."""

    name: str
    type: Optional[UBit]
    init: Expr

    EXPRS = ("init",)


@dataclass
class AssignVar(Stmt):
    name: str
    value: Expr

    EXPRS = ("value",)


@dataclass
class AssignMem(Stmt):
    mem: str
    indices: List[Expr]
    value: Expr

    EXPRS = ("indices", "value")


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Optional[Stmt] = None

    EXPRS = ("cond",)
    BODY = ("then", "orelse")


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt

    EXPRS = ("cond",)
    BODY = ("body",)


@dataclass
class For(Stmt):
    """``for (let i = a..b) unroll u { body }``"""

    var: str
    var_type: Optional[UBit]
    start: int
    end: int
    unroll: int
    body: Stmt

    BODY = ("body",)


@dataclass
class OrderedSeq(Stmt):
    """Dahlia's ``---``: statements execute in order."""

    stmts: List[Stmt] = field(default_factory=list)

    BODY = ("stmts",)


@dataclass
class UnorderedSeq(Stmt):
    """Dahlia's ``;``: statements may execute in parallel."""

    stmts: List[Stmt] = field(default_factory=list)

    BODY = ("stmts",)


@dataclass
class ParBlock(Stmt):
    """Introduced by the unroller: bodies that run in parallel."""

    stmts: List[Stmt] = field(default_factory=list)

    BODY = ("stmts",)


@dataclass
class Program:
    decls: List[Decl]
    body: Stmt


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def _nodes(node, names: Tuple[str, ...]) -> Iterator:
    """The sub-nodes held in ``node``'s fields ``names``, lists flattened."""
    for name in names:
        value = getattr(node, name)
        if isinstance(value, list):
            yield from value
        elif value is not None:
            yield value


def _rebuilt(node, names: Tuple[str, ...], fn: Callable):
    """A copy of ``node`` with ``fn`` applied to the sub-nodes in ``names``.

    Every other attribute is kept, an expression's width included.
    """
    new = object.__new__(type(node))
    new.__dict__.update(node.__dict__)
    for name in names:
        value = getattr(node, name)
        if isinstance(value, list):
            setattr(new, name, [fn(item) for item in value])
        elif value is not None:
            setattr(new, name, fn(value))
    return new


def children(stmt: Stmt) -> List[Stmt]:
    """The statements nested directly in ``stmt``, in program order."""
    return list(_nodes(stmt, stmt.BODY))


def exprs(stmt: Stmt) -> List[Expr]:
    """The expressions ``stmt`` itself evaluates, in evaluation order."""
    return list(_nodes(stmt, stmt.EXPRS))


def walk(stmt: Stmt) -> Iterator[Stmt]:
    """Every statement in the subtree, pre-order."""
    yield stmt
    for child in children(stmt):
        yield from walk(child)


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Every node of an expression, pre-order."""
    yield expr
    for operand in _nodes(expr, expr.OPERANDS):
        yield from walk_expr(operand)


def walk_exprs(stmt: Stmt) -> Iterator[Expr]:
    """Every expression node in a statement subtree, pre-order."""
    for node in walk(stmt):
        for expr in exprs(node):
            yield from walk_expr(expr)


def map_expr(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``expr`` bottom-up: ``fn`` sees each node after its operands.

    Rebuilt nodes keep their annotated width; leaves reach ``fn`` as they
    are.
    """
    if expr.OPERANDS:
        expr = _rebuilt(expr, expr.OPERANDS, lambda e: map_expr(e, fn))
    return fn(expr)


def map_stmt(
    stmt: Stmt,
    expr_fn: Optional[Callable[[Expr], Expr]] = None,
    pre: Callable[[Stmt], Optional[Stmt]] = lambda stmt: None,
) -> Stmt:
    """Rebuild ``stmt``, rewriting each expression with ``map_expr(expr, expr_fn)``.

    ``pre`` sees each statement first; when it returns a statement, that
    replaces the whole subtree. Without ``expr_fn`` expressions are kept.
    """
    replaced = pre(stmt)
    if replaced is not None:
        return replaced
    if expr_fn is not None:
        stmt = _rebuilt(stmt, stmt.EXPRS, lambda e: map_expr(e, expr_fn))
    return _rebuilt(stmt, stmt.BODY, lambda s: map_stmt(s, expr_fn, pre))
