"""The Calyx standard library: primitive components.

``primitives`` is the registry: one entry per primitive gives its
signature (ports, parameters, attributes), and names its simulation
model, Verilog module and cost. The entries draw on three modules:
``behaviors`` holds the cycle-accurate Python simulation models,
``verilog_models`` the SystemVerilog module text, and ``costs`` the FPGA
resource model used in place of Vivado synthesis.
"""

from repro.stdlib.primitives import Primitive, get_primitive, is_primitive, all_primitives

__all__ = ["Primitive", "get_primitive", "is_primitive", "all_primitives"]
