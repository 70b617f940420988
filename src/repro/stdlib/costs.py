"""FPGA resource cost model — the stand-in for Vivado synthesis estimates.

This module holds the cost *rules*; which rule a primitive uses is part of
its entry in :mod:`repro.stdlib.primitives`, so a primitive's cost is
``get_primitive(name).cost(args)``.

Costs approximate a 6-input-LUT FPGA (the paper targets a Zynq UltraScale+
XCZU3EG). Only *relative* costs matter for reproducing the paper's
comparisons; the model is deliberately simple and fully documented:

* a ``w``-bit add/sub costs ``w`` LUTs (one LUT per bit with carry chain),
* a ``w``-bit comparator costs about ``w/2`` LUTs,
* bitwise ops cost about ``w/2`` LUTs,
* a register costs flip-flops, not LUTs,
* a 2:1 ``w``-bit multiplexer costs ``ceil(w/2)`` LUTs (two mux bits per
  LUT6); every additional driver of a port adds one 2:1 mux,
* guard logic costs one LUT per operator node,
* multipliers map to DSP blocks, memories above a threshold to BRAM.

These choices make the paper's central tension real: sharing an adder saves
its LUTs but pays for input multiplexers and extra guard terms, so sharing
can *increase* LUT counts (Figure 9a) while register sharing always reduces
flip-flops (Figure 9b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

#: Memories at least this many bits map to BRAM instead of LUTRAM.
BRAM_THRESHOLD_BITS = 1024


@dataclass
class Resources:
    """Resource usage report: the metrics the paper plots."""

    luts: float = 0.0
    registers: int = 0
    dsps: int = 0
    brams: int = 0
    detail: Dict[str, float] = field(default_factory=dict)

    def add(self, other: "Resources") -> "Resources":
        merged = dict(self.detail)
        for key, value in other.detail.items():
            merged[key] = merged.get(key, 0.0) + value
        return Resources(
            self.luts + other.luts,
            self.registers + other.registers,
            self.dsps + other.dsps,
            self.brams + other.brams,
            merged,
        )

    def charge(self, category: str, luts: float = 0.0, registers: int = 0, dsps: int = 0, brams: int = 0) -> None:
        """Accumulate a cost under a named category (for reports)."""
        self.luts += luts
        self.registers += registers
        self.dsps += dsps
        self.brams += brams
        if luts:
            self.detail[category] = self.detail.get(category, 0.0) + luts

    def __str__(self) -> str:
        return (
            f"LUTs={self.luts:.0f} regs={self.registers} "
            f"DSPs={self.dsps} BRAMs={self.brams}"
        )


def mux_cost(width: int, n_drivers: int) -> float:
    """LUTs for the multiplexing needed by a ``width``-bit port with
    ``n_drivers`` distinct drivers (zero when a unique driver exists)."""
    if n_drivers <= 1:
        return 0.0
    return (n_drivers - 1) * math.ceil(width / 2)


def guard_cost(n_operator_nodes: int) -> float:
    """LUTs for guard logic: one LUT per boolean/comparison operator."""
    return float(n_operator_nodes)


def _mem_cost(width: int, size: int) -> Resources:
    bits = width * size
    res = Resources()
    if bits >= BRAM_THRESHOLD_BITS:
        res.charge("bram", brams=max(1, math.ceil(bits / 18432)))
    else:
        # Distributed LUTRAM: 64 bits per LUT.
        res.charge("lutram", luts=math.ceil(bits / 64))
    return res


def _charged(category: str, **amounts) -> Resources:
    res = Resources()
    res.charge(category, **amounts)
    return res


# Each function below is one primitive's cost rule, named by the
# ``cost`` field of its :mod:`repro.stdlib.primitives` entry; ``args`` are
# the instance's parameters in declaration order (``WIDTH`` first).


def adder(args: Sequence[int]) -> Resources:
    return _charged("arith", luts=args[0])


def logic(args: Sequence[int]) -> Resources:
    return _charged("logic", luts=math.ceil(args[0] / 2))


def shifter(args: Sequence[int]) -> Resources:
    """Barrel shifter: ~ w * log2(w) / 2 LUTs."""
    width = args[0]
    return _charged("shift", luts=math.ceil(width * max(1, math.log2(width)) / 2))


def comparator(args: Sequence[int]) -> Resources:
    return _charged("cmp", luts=math.ceil(args[0] / 2) + 1)


def wiring(args: Sequence[int]) -> Resources:
    return Resources()


def register(args: Sequence[int]) -> Resources:
    return _charged("reg", registers=args[0] + 1)  # value bits + done flop


def memory_d1(args: Sequence[int]) -> Resources:
    res = _mem_cost(args[0], args[1])
    res.charge("mem-ctrl", registers=1)
    return res


def memory_d2(args: Sequence[int]) -> Resources:
    res = _mem_cost(args[0], args[1] * args[2])
    res.charge("mem-ctrl", registers=1, luts=math.ceil(args[0] / 8))
    return res


def multiplier(args: Sequence[int]) -> Resources:
    return _charged("dsp", dsps=1 if args[0] <= 18 else 4, luts=20)


def pipelined_multiplier(args: Sequence[int]) -> Resources:
    res = multiplier(args)
    res.charge("pipe-reg", registers=2 * args[0] + 3)
    return res


def divider(args: Sequence[int]) -> Resources:
    return _charged("div", luts=3 * args[0], registers=2 * args[0] + 3)


def square_root(args: Sequence[int]) -> Resources:
    return _charged("sqrt", luts=2 * args[0], registers=args[0] + 3)
