"""SystemVerilog implementations of the standard-library primitives.

Each primitive's entry in :mod:`repro.stdlib.primitives` carries its
module text, built here: the fixed modules as literal text, both operator
families from :func:`binop_module`, and the go/done units from
:func:`go_done_module`. :mod:`repro.backend.verilog` emits each module a
design uses once, ahead of the design's own modules.

The modules mirror the Python simulation models in
:mod:`repro.stdlib.behaviors`: registered ``done`` signals, synchronous
writes, and units that count cycles while ``go`` is high. Every module of
a primitive that is not combinational has a ``clk`` input.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

WIRE = """module std_wire #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] in,
  output logic [WIDTH-1:0] out
);
  assign out = in;
endmodule
"""

CONST = """module std_const #(parameter WIDTH = 32, parameter VALUE = 0) (
  output logic [WIDTH-1:0] out
);
  assign out = VALUE;
endmodule
"""

SLICE = """module std_slice #(parameter IN_WIDTH = 32, parameter OUT_WIDTH = 32) (
  input  logic [IN_WIDTH-1:0] in,
  output logic [OUT_WIDTH-1:0] out
);
  assign out = in[OUT_WIDTH-1:0];
endmodule
"""

PAD = """module std_pad #(parameter IN_WIDTH = 32, parameter OUT_WIDTH = 32) (
  input  logic [IN_WIDTH-1:0] in,
  output logic [OUT_WIDTH-1:0] out
);
  assign out = {{(OUT_WIDTH - IN_WIDTH){1'b0}}, in};
endmodule
"""

NOT = """module std_not #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] in,
  output logic [WIDTH-1:0] out
);
  assign out = ~in;
endmodule
"""

REG = """module std_reg #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] in,
  input  logic write_en,
  input  logic clk,
  output logic [WIDTH-1:0] out,
  output logic done
);
  always_ff @(posedge clk) begin
    if (write_en) begin
      out <= in;
      done <= 1'd1;
    end else begin
      done <= 1'd0;
    end
  end
endmodule
"""

MEM_D1 = """module std_mem_d1 #(
  parameter WIDTH = 32, parameter SIZE = 16, parameter IDX_SIZE = 4
) (
  input  logic [IDX_SIZE-1:0] addr0,
  input  logic [WIDTH-1:0] write_data,
  input  logic write_en,
  input  logic clk,
  output logic [WIDTH-1:0] read_data,
  output logic done
);
  logic [WIDTH-1:0] mem [SIZE-1:0];
  assign read_data = mem[addr0];
  always_ff @(posedge clk) begin
    if (write_en) begin
      mem[addr0] <= write_data;
      done <= 1'd1;
    end else begin
      done <= 1'd0;
    end
  end
endmodule
"""

MEM_D2 = """module std_mem_d2 #(
  parameter WIDTH = 32, parameter D0_SIZE = 4, parameter D1_SIZE = 4,
  parameter D0_IDX_SIZE = 2, parameter D1_IDX_SIZE = 2
) (
  input  logic [D0_IDX_SIZE-1:0] addr0,
  input  logic [D1_IDX_SIZE-1:0] addr1,
  input  logic [WIDTH-1:0] write_data,
  input  logic write_en,
  input  logic clk,
  output logic [WIDTH-1:0] read_data,
  output logic done
);
  logic [WIDTH-1:0] mem [D0_SIZE*D1_SIZE-1:0];
  assign read_data = mem[addr0 * D1_SIZE + addr1];
  always_ff @(posedge clk) begin
    if (write_en) begin
      mem[addr0 * D1_SIZE + addr1] <= write_data;
      done <= 1'd1;
    end else begin
      done <= 1'd0;
    end
  end
endmodule
"""


def binop_module(name: str, op: str, one_bit_out: bool) -> str:
    """A two-input operator; a comparison (``one_bit_out``) drives 1 bit."""
    out = "logic out" if one_bit_out else "logic [WIDTH-1:0] out"
    return f"""module {name} #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] left,
  input  logic [WIDTH-1:0] right,
  output {out}
);
  assign out = left {op} right;
endmodule
"""


def go_done_module(
    name: str,
    ins: Sequence[str],
    results: Dict[str, str],
    latency: Union[int, str],
    decls: str = "",
) -> str:
    """A unit that counts cycles while ``go`` is high, then latches each
    output of ``results`` to its expression and raises ``done`` for one
    cycle; dropping ``go`` resets the count. Every data port is ``WIDTH``
    bits wide.

    ``latency`` is the entry's fixed latency, or an expression giving a
    data-dependent one from the current inputs (held in a ``WIDTH``-bit
    count). ``decls`` is module text placed ahead of the counter.
    """
    if isinstance(latency, int):
        bits = latency.bit_length()
        count_range, zero, one = f"[{bits - 1}:0]", f"{bits}'d0", f"{bits}'d1"
        fire = f"count == {bits}'d{latency - 1}"
    else:
        count_range, zero, one = "[WIDTH-1:0]", "'0", "1'd1"
        fire = f"count + 1'd1 >= {latency}"
    ports = [f"  input  logic [WIDTH-1:0] {p}" for p in ins]
    ports += ["  input  logic go", "  input  logic clk"]
    ports += [f"  output logic [WIDTH-1:0] {p}" for p in results]
    ports.append("  output logic done")
    header = ",\n".join(ports)
    latches = "".join(f"        {p} <= {expr};\n" for p, expr in results.items())
    return f"""module {name} #(parameter WIDTH = 32) (
{header}
);
{decls}  logic {count_range} count;
  always_ff @(posedge clk) begin
    if (done) begin
      done <= 1'd0;
      count <= {zero};
    end else if (go) begin
      count <= count + {one};
      if ({fire}) begin
{latches}        done <= 1'd1;
      end
    end else begin
      count <= {zero};
    end
  end
endmodule
"""


#: Functions of the ``std_sqrt`` module: ``steps`` is its latency for an
#: input, ``max(1, bitlen(x) // 2 + 1)`` like its model's, and ``isqrt``
#: its result, found one bit at a time from the top.
SQRT_FUNCTIONS = """  function automatic int steps(input logic [WIDTH-1:0] x);
    int n;
    n = 1;
    for (int i = 0; i < WIDTH; i++)
      if (x[i]) n = (i + 1) / 2 + 1;
    return n;
  endfunction
  function automatic logic [WIDTH-1:0] isqrt(input logic [WIDTH-1:0] x);
    logic [WIDTH-1:0] root, trial;
    root = '0;
    for (int i = (WIDTH - 1) / 2; i >= 0; i--) begin
      trial = root;
      trial[i] = 1'b1;
      if (trial <= x / trial) root = trial;
    end
    return root;
  endfunction
"""
