"""Cost-model-guided resource sharing (the paper's Section 9 future work).

The plain resource-sharing pass (Section 5.1) merges every compatible
pair, which can *increase* LUT usage: each extra driver of a shared
component's input ports costs a 2:1 multiplexer slice plus guard logic
(the effect Figure 9a measures). The paper proposes a heuristic cost model
to decide which components are worth sharing; this pass implements it:

    merge a component class only when
        saved operator cost  >  added multiplexer + guard cost

with the same LUT/DSP tables the resource estimator uses (DSPs weighted
heavily — multipliers are almost always worth sharing on FPGAs, while
narrow adders almost never are). Target-specific trade-offs (the paper's
ASIC-vs-FPGA registers/muxes observation) are expressed through the
:class:`SharingCostModel` parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.backend.resources import estimate_resources
from repro.ir.ast import Program
from repro.ir.types import Direction
from repro.passes.base import register_pass
from repro.passes.resource_sharing import ResourceSharing
from repro.stdlib.primitives import get_primitive, is_primitive


@dataclass
class SharingCostModel:
    """Target-specific weights for the share-or-not decision."""

    #: LUT-equivalents one DSP block is worth (sharing multipliers is
    #: almost always profitable on FPGAs).
    dsp_weight: float = 100.0
    #: LUT-equivalents per flip-flop (registers are cheap on FPGAs,
    #: expensive in ASIC processes — the paper's Section 9 example).
    register_weight: float = 0.1
    #: LUTs per extra 2:1 mux bit pair on a shared input port.
    mux_luts_per_bit_pair: float = 1.0
    #: guard-logic LUTs charged per additional driver.
    guard_luts: float = 2.0

    def unit_value(
        self, program: Program, comp_name: str, args: Tuple[int, ...]
    ) -> float:
        """What one unit is worth; a ``"share"`` component of ``program``
        is worth its whole estimated body."""
        if is_primitive(comp_name):
            cost = get_primitive(comp_name).cost(args)
        else:
            cost = estimate_resources(program, comp_name)
        return (
            cost.luts
            + self.dsp_weight * cost.dsps
            + self.register_weight * cost.registers
        )

    def merge_penalty(
        self, program: Program, comp_name: str, args: Tuple[int, ...]
    ) -> float:
        """Cost added per extra user of a shared unit (input muxes)."""
        if not is_primitive(comp_name):
            return self.guard_luts
        sig = get_primitive(comp_name).signature(args)
        input_bits = sum(
            p.width for p in sig.values() if p.direction is Direction.INPUT
        )
        return (
            math.ceil(input_bits / 2) * self.mux_luts_per_bit_pair
            + self.guard_luts
        )


@register_pass
class HeuristicResourceSharing(ResourceSharing):
    name = "resource-sharing-heuristic"
    description = "share components only when the cost model says it pays"

    def __init__(self, model: SharingCostModel = None):
        self.model = model or SharingCostModel()

    def _worth_sharing(
        self, program: Program, comp_name: str, args: Tuple[int, ...]
    ) -> bool:
        value = self.model.unit_value(program, comp_name, args)
        return value > self.model.merge_penalty(program, comp_name, args)
