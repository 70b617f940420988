"""The standard-library registry: every primitive is declared here once.

Each primitive mirrors a member of the Calyx standard library used by the
paper: registers, memories, combinational ALU operators, and sequential
(multi-cycle) units such as the pipelined multiplier. Its entry is the one
place that names it, and carries everything every layer needs:

* its parameters and port signature, and its intrinsic attributes
  (``"share"`` for shareable combinational units, ``"static"`` for units
  with a fixed latency);
* ``combinational`` (no state and no clock) and ``latency``;
* ``model``, the factory of its simulation model
  (:mod:`repro.stdlib.behaviors`);
* ``verilog``, its SystemVerilog module (:mod:`repro.stdlib.verilog_models`);
* ``cost``, its FPGA resource cost rule (:mod:`repro.stdlib.costs`).

The operator families are rows of :data:`_ARITH_OPS` and
:data:`_COMPARISONS`, and the go/done units calls of :func:`_go_done`;
each entry's signature, model, module and cost come from that one row.
To add a primitive, append one more entry to :data:`_REGISTRY`, with a
model class, a module and a cost rule from those three modules.

Deviation from the paper's listings: as in the real Calyx standard library,
stateful primitives carry an explicit ``write_en`` port which the paper's
examples elide.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import UndefinedError, ValidationError
from repro.ir.attributes import Attributes, SHARE, STATIC
from repro.ir.types import Direction, PortDef
from repro.stdlib import costs, verilog_models
from repro.stdlib.behaviors import (
    EXTERN_MODELS,
    BinOpModel,
    ConstModel,
    DivPipeModel,
    MemModel,
    MultPipeModel,
    NotModel,
    PrimitiveModel,
    RegModel,
    SqrtModel,
    TruncModel,
)

# Fixed latency of the pipelined multiplier and divider (paper Section 6.2:
# "multiplies take four cycles").
MULT_LATENCY = 4
DIV_LATENCY = 4


class Primitive:
    """One standard-library primitive: signature, model, module and cost.

    ``ports`` is a list of ``(name, width_spec, direction)`` where
    ``width_spec`` is either an integer literal width or the name of a
    parameter (e.g. ``"WIDTH"``). ``model(args)`` builds its simulation
    model, ``verilog`` is its module text and ``cost(args)`` its
    :class:`~repro.stdlib.costs.Resources`.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        ports: Sequence[Tuple[str, object, Direction]],
        attributes: Optional[Dict[str, int]] = None,
        combinational: bool = True,
        latency: Optional[int] = None,
        *,
        model: Callable[[Sequence[int]], PrimitiveModel],
        verilog: str,
        cost: Callable[[Sequence[int]], costs.Resources],
    ):
        self.name = name
        self.params = tuple(params)
        self.ports = list(ports)
        self._signatures: Dict[Tuple[int, ...], Mapping[str, PortDef]] = {}
        self.attributes = Attributes(attributes or {})
        # Combinational primitives hold no state and take no clock.
        self.combinational = combinational
        self.model = model
        self.verilog = verilog
        self.cost = cost
        # Fixed latency in cycles for sequential primitives; None when the
        # latency is data-dependent (e.g. std_sqrt).
        self.latency = latency
        if latency is not None:
            self.attributes.set(STATIC, latency)

    def bind(self, args: Sequence[int]) -> Dict[str, int]:
        """Bind concrete arguments to parameter names."""
        if len(args) != len(self.params):
            raise ValidationError(
                f"primitive {self.name!r} takes {len(self.params)} parameter(s) "
                f"({', '.join(self.params)}), got {len(args)}"
            )
        return dict(zip(self.params, (int(a) for a in args)))

    def signature(self, args: Sequence[int]) -> Mapping[str, PortDef]:
        """Port signature for a concrete instantiation, one read-only mapping per ``args``."""
        key = tuple(args)
        sig = self._signatures.get(key)
        if sig is None:
            env = self.bind(args)
            ports: Dict[str, PortDef] = {}
            for port_name, width_spec, direction in self.ports:
                width = env[width_spec] if isinstance(width_spec, str) else int(width_spec)
                ports[port_name] = PortDef(port_name, width, direction)
            sig = self._signatures[key] = MappingProxyType(ports)
        return sig

    def is_shareable(self) -> bool:
        return bool(self.attributes.get(SHARE, 0))

    def __repr__(self) -> str:
        return f"Primitive({self.name!r})"


_IN = Direction.INPUT
_OUT = Direction.OUTPUT

# One row per two-input combinational operator: name, Python function of
# (left, right, width), SystemVerilog operator, cost rule.
_ARITH_OPS = [
    ("std_add", lambda l, r, w: l + r, "+", costs.adder),
    ("std_sub", lambda l, r, w: l - r, "-", costs.adder),
    ("std_and", lambda l, r, w: l & r, "&", costs.logic),
    ("std_or", lambda l, r, w: l | r, "|", costs.logic),
    ("std_xor", lambda l, r, w: l ^ r, "^", costs.logic),
    ("std_lsh", lambda l, r, w: l << min(r, w), "<<", costs.shifter),
    ("std_rsh", lambda l, r, w: l >> min(r, w), ">>", costs.shifter),
    # Combinational single-cycle multiplier: used by the HLS-style baseline
    # model and by tests; the Dahlia frontend emits std_mult_pipe.
    ("std_mult", lambda l, r, w: l * r, "*", costs.multiplier),
]
# The comparisons, whose ``out`` is one bit wide.
_COMPARISONS = [
    ("std_gt", lambda l, r, w: l > r, ">", costs.comparator),
    ("std_lt", lambda l, r, w: l < r, "<", costs.comparator),
    ("std_eq", lambda l, r, w: l == r, "==", costs.comparator),
    ("std_neq", lambda l, r, w: l != r, "!=", costs.comparator),
    ("std_ge", lambda l, r, w: l >= r, ">=", costs.comparator),
    ("std_le", lambda l, r, w: l <= r, "<=", costs.comparator),
]


def _binop(name: str, fn: Callable, op: str, cost: Callable, one_bit_out: bool) -> Primitive:
    """A shareable two-input combinational operator, from its row."""
    out_width = 1 if one_bit_out else None
    return Primitive(
        name,
        ["WIDTH"],
        [("left", "WIDTH", _IN), ("right", "WIDTH", _IN), ("out", out_width or "WIDTH", _OUT)],
        attributes={SHARE: 1},
        model=lambda args: BinOpModel(args, fn, out_width),
        verilog=verilog_models.binop_module(name, op, one_bit_out),
        cost=cost,
    )


def _go_done(
    name: str,
    ins: List[str],
    results: Dict[str, str],
    latency: Union[int, str],
    model: Callable[[Sequence[int], Optional[int]], PrimitiveModel],
    cost: Callable[[Sequence[int]], costs.Resources],
    decls: str = "",
) -> Primitive:
    """A sequential unit driven by go/done, from its ports and latency.

    ``results`` maps each ``WIDTH``-bit output to the SystemVerilog
    expression it latches; ``latency`` is a fixed cycle count, or the
    SystemVerilog expression of a data-dependent one (no ``"static"``).
    """
    fixed = latency if isinstance(latency, int) else None
    ports = [(p, "WIDTH", _IN) for p in ins] + [("go", 1, _IN)]
    ports += [(p, "WIDTH", _OUT) for p in results] + [("done", 1, _OUT)]
    return Primitive(
        name,
        ["WIDTH"],
        ports,
        combinational=False,
        latency=fixed,
        model=lambda args: model(args, fixed),
        verilog=verilog_models.go_done_module(name, ins, results, latency, decls),
        cost=cost,
    )


_REGISTRY = [
    # -- stateless wiring --------------------------------------------------
    Primitive(
        "std_wire",
        ["WIDTH"],
        [("in", "WIDTH", _IN), ("out", "WIDTH", _OUT)],
        model=TruncModel,
        verilog=verilog_models.WIRE,
        cost=costs.wiring,
    ),
    Primitive(
        "std_const",
        ["WIDTH", "VALUE"],
        [("out", "WIDTH", _OUT)],
        model=ConstModel,
        verilog=verilog_models.CONST,
        cost=costs.wiring,
    ),
    Primitive(
        "std_slice",
        ["IN_WIDTH", "OUT_WIDTH"],
        [("in", "IN_WIDTH", _IN), ("out", "OUT_WIDTH", _OUT)],
        model=TruncModel,
        verilog=verilog_models.SLICE,
        cost=costs.wiring,
    ),
    Primitive(
        "std_pad",
        ["IN_WIDTH", "OUT_WIDTH"],
        [("in", "IN_WIDTH", _IN), ("out", "OUT_WIDTH", _OUT)],
        model=TruncModel,
        verilog=verilog_models.PAD,
        cost=costs.wiring,
    ),
    # -- combinational arithmetic, logic and comparison ---------------------
    *(_binop(*row, one_bit_out=False) for row in _ARITH_OPS),
    *(_binop(*row, one_bit_out=True) for row in _COMPARISONS),
    Primitive(
        "std_not",
        ["WIDTH"],
        [("in", "WIDTH", _IN), ("out", "WIDTH", _OUT)],
        attributes={SHARE: 1},
        model=NotModel,
        verilog=verilog_models.NOT,
        cost=costs.logic,
    ),
    # -- registers and memories ----------------------------------------------
    Primitive(
        "std_reg",
        ["WIDTH"],
        [("in", "WIDTH", _IN), ("write_en", 1, _IN), ("out", "WIDTH", _OUT), ("done", 1, _OUT)],
        combinational=False,
        latency=1,
        model=RegModel,
        verilog=verilog_models.REG,
        cost=costs.register,
    ),
    Primitive(
        "std_mem_d1",
        ["WIDTH", "SIZE", "IDX_SIZE"],
        [
            ("addr0", "IDX_SIZE", _IN),
            ("write_data", "WIDTH", _IN),
            ("write_en", 1, _IN),
            ("read_data", "WIDTH", _OUT),
            ("done", 1, _OUT),
        ],
        combinational=False,
        latency=1,
        model=MemModel,
        verilog=verilog_models.MEM_D1,
        cost=costs.memory_d1,
    ),
    Primitive(
        "std_mem_d2",
        ["WIDTH", "D0_SIZE", "D1_SIZE", "D0_IDX_SIZE", "D1_IDX_SIZE"],
        [
            ("addr0", "D0_IDX_SIZE", _IN),
            ("addr1", "D1_IDX_SIZE", _IN),
            ("write_data", "WIDTH", _IN),
            ("write_en", 1, _IN),
            ("read_data", "WIDTH", _OUT),
            ("done", 1, _OUT),
        ],
        combinational=False,
        latency=1,
        model=MemModel,
        verilog=verilog_models.MEM_D2,
        cost=costs.memory_d2,
    ),
    # -- multi-cycle functional units -------------------------------------------
    _go_done(
        "std_mult_pipe",
        ["left", "right"],
        {"out": "left * right"},
        MULT_LATENCY,
        MultPipeModel,
        costs.pipelined_multiplier,
    ),
    _go_done(
        "std_div_pipe",
        ["left", "right"],
        {
            "out_quotient": "right == 0 ? '1 : left / right",
            "out_remainder": "right == 0 ? left : left % right",
        },
        DIV_LATENCY,
        DivPipeModel,
        costs.divider,
    ),
    # Integer square root with a data-dependent latency: the paper's example
    # of a black-box RTL unit that forces latency-insensitive compilation.
    _go_done(
        "std_sqrt",
        ["in"],
        {"out": "isqrt(in)"},
        "steps(in)",
        SqrtModel,
        costs.square_root,
        decls=verilog_models.SQRT_FUNCTIONS,
    ),
]
_PRIMITIVES: Dict[str, Primitive] = {prim.name: prim for prim in _REGISTRY}


def get_primitive(name: str) -> Primitive:
    """Look up a primitive by name, raising :class:`UndefinedError`."""
    try:
        return _PRIMITIVES[name]
    except KeyError:
        raise UndefinedError(f"unknown primitive {name!r}") from None


def is_primitive(name: str) -> bool:
    return name in _PRIMITIVES


def all_primitives() -> List[Primitive]:
    return list(_PRIMITIVES.values())


def make_model(comp_name: str, args: Sequence[int]) -> PrimitiveModel:
    """Instantiate the simulation model for a primitive or extern."""
    prim = _PRIMITIVES.get(comp_name)
    if prim is not None:
        prim.signature(args)  # arity check, once per distinct ``args``
        return prim.model(args)
    factory = EXTERN_MODELS.get(comp_name)
    if factory is None:
        raise UndefinedError(f"no simulation model for {comp_name!r}")
    return factory(args)
