"""The 19 PolyBench linear-algebra kernels in mini-Dahlia (paper Section 7.2).

Every kernel from the suite's linear-algebra category is hand-written in
mini-Dahlia at a reduced problem size (default ``n=4``; pure-Python RTL
simulation is the Verilator substitute, so sizes are small). For the 11
kernels whose access patterns satisfy Dahlia's banking discipline — the
same count the paper unrolls — an unrolled variant with banked memories is
provided.

Fidelity notes (all recorded in DESIGN.md):

* arithmetic is unsigned integer; subtraction wraps identically in the
  reference interpreter and in simulated hardware,
* ``sqrt`` (cholesky, gramschmidt) is modeled as the identity on the
  already-accumulated value: the paper links a black-box RTL sqrt, which
  does not change loop structure — the driver of every measured effect,
* triangular loops use rectangular iteration with ``if`` guards (constant
  trip counts), the standard trick for HLS-friendly PolyBench,
* a handful of unrolled variants duplicate a read-only input array with a
  different banking orientation (e.g. ``A2``), mirroring how real Dahlia
  and HLS codes bank transposed accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.workloads.common import matrix, vector


@dataclass
class Kernel:
    """One benchmark: sources plus logical input memories and outputs."""

    name: str
    source: str
    memories: Dict[str, List[int]]
    outputs: List[str]
    unrolled_source: Optional[str] = None
    #: extra memories only present in the unrolled variant (duplicated
    #: arrays); values are the *source* memory they mirror.
    duplicated: Dict[str, str] = field(default_factory=dict)
    #: fresh zero-initialized memories only in the unrolled variant.
    unrolled_extra: Dict[str, List[int]] = field(default_factory=dict)
    #: output memories of the unrolled variant when they differ.
    unrolled_outputs: Optional[List[str]] = None

    @property
    def unrollable(self) -> bool:
        return self.unrolled_source is not None

    def outputs_for(self, unrolled: bool) -> List[str]:
        if unrolled and self.unrolled_outputs is not None:
            return list(self.unrolled_outputs)
        return list(self.outputs)

    def memories_for(self, unrolled: bool) -> Dict[str, List[int]]:
        mems = {k: list(v) for k, v in self.memories.items()}
        if unrolled:
            for dup, src in self.duplicated.items():
                mems[dup] = list(mems[src])
            for name, values in self.unrolled_extra.items():
                mems[name] = list(values)
        return mems


def _mm_decls(n: int, names: str, extra: str = "") -> str:
    lines = [f"decl {x}: ubit<32>[{n}][{n}];" for x in names.split()]
    return "\n".join(lines) + ("\n" + extra if extra else "")


# ---------------------------------------------------------------------------
# Kernel definitions. Each builder returns a Kernel for problem size n and
# unroll factor u (which must divide n).
# ---------------------------------------------------------------------------


def _gemm(n: int, u: int) -> Kernel:
    source = f"""
{_mm_decls(n, "A B C")}
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    C[i][j] := 3 * C[i][j]
  }}
}}
---
for (let i = 0..{n}) {{
  for (let k = 0..{n}) {{
    let a_val: ubit<32> = 2 * A[i][k];
    ---
    for (let j = 0..{n}) {{
      C[i][j] := C[i][j] + a_val * B[k][j]
    }}
  }}
}}
"""
    # The unrolled variant scales C before accumulating, like the plain
    # one, so both compute the same result.
    unrolled = f"""
decl A: ubit<32>[{n} bank {u}][{n}];
decl B: ubit<32>[{n}][{n}];
decl C: ubit<32>[{n} bank {u}][{n}];
for (let j = 0..{n}) {{
  for (let i = 0..{n}) unroll {u} {{
    C[i][j] := 3 * C[i][j]
  }}
}}
---
for (let k = 0..{n}) {{
  for (let j = 0..{n}) {{
    for (let i = 0..{n}) unroll {u} {{
      C[i][j] := C[i][j] + 2 * A[i][k] * B[k][j]
    }}
  }}
}}
"""
    return Kernel(
        "gemm",
        source,
        {
            "A": matrix(1, n, n),
            "B": matrix(2, n, n),
            "C": matrix(3, n, n),
        },
        ["C"],
        unrolled,
    )


def _two_mm(n: int, u: int) -> Kernel:
    source = f"""
{_mm_decls(n, "A B C D tmp")}
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    let acc: ubit<32> = 0;
    ---
    for (let k = 0..{n}) {{
      acc := acc + 2 * A[i][k] * B[k][j]
    }}
    ---
    tmp[i][j] := acc
  }}
}}
---
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    let acc2: ubit<32> = 3 * D[i][j];
    ---
    for (let k = 0..{n}) {{
      acc2 := acc2 + tmp[i][k] * C[k][j]
    }}
    ---
    D[i][j] := acc2
  }}
}}
"""
    unrolled = f"""
decl A: ubit<32>[{n} bank {u}][{n}];
decl B: ubit<32>[{n}][{n}];
decl C: ubit<32>[{n}][{n}];
decl D: ubit<32>[{n} bank {u}][{n}];
decl tmp: ubit<32>[{n} bank {u}][{n}];
for (let i = 0..{n}) unroll {u} {{
  for (let j = 0..{n}) {{
    let acc: ubit<32> = 0;
    ---
    for (let k = 0..{n}) {{
      acc := acc + 2 * A[i][k] * B[k][j]
    }}
    ---
    tmp[i][j] := acc
  }}
}}
---
for (let i = 0..{n}) unroll {u} {{
  for (let j = 0..{n}) {{
    let acc2: ubit<32> = 3 * D[i][j];
    ---
    for (let k = 0..{n}) {{
      acc2 := acc2 + tmp[i][k] * C[k][j]
    }}
    ---
    D[i][j] := acc2
  }}
}}
"""
    return Kernel(
        "2mm",
        source,
        {
            "A": matrix(4, n, n),
            "B": matrix(5, n, n),
            "C": matrix(6, n, n),
            "D": matrix(7, n, n),
            "tmp": [0] * (n * n),
        },
        ["D"],
        unrolled,
    )


def _three_mm(n: int, u: int) -> Kernel:
    stage = """
for (let i = 0..{n}){unroll} {{
  for (let j = 0..{n}) {{
    let acc{s}: ubit<32> = 0;
    ---
    for (let k = 0..{n}) {{
      acc{s} := acc{s} + {a}[i][k] * {b}[k][j]
    }}
    ---
    {o}[i][j] := acc{s}
  }}
}}
"""

    def stages(unroll: str) -> str:
        return "\n---\n".join(
            stage.format(n=n, unroll=unroll, a=a, b=b, o=o, s=s)
            for s, (a, b, o) in enumerate(
                [("A", "B", "E"), ("C", "D", "F"), ("E", "F", "G")]
            )
        )

    source = _mm_decls(n, "A B C D E F G") + "\n" + stages("")
    unrolled = (
        f"decl A: ubit<32>[{n} bank {u}][{n}];\n"
        f"decl B: ubit<32>[{n}][{n}];\n"
        f"decl C: ubit<32>[{n} bank {u}][{n}];\n"
        f"decl D: ubit<32>[{n}][{n}];\n"
        f"decl E: ubit<32>[{n} bank {u}][{n}];\n"
        f"decl F: ubit<32>[{n}][{n}];\n"
        f"decl G: ubit<32>[{n} bank {u}][{n}];\n"
        + stages(f" unroll {u}")
    )
    # Stage 2 writes F (unbanked) inside an i-unrolled loop: not allowed.
    # Keep stages 1 and 3 unrolled, stage 2 plain.
    unrolled = (
        f"decl A: ubit<32>[{n} bank {u}][{n}];\n"
        f"decl B: ubit<32>[{n}][{n}];\n"
        f"decl C: ubit<32>[{n}][{n}];\n"
        f"decl D: ubit<32>[{n}][{n}];\n"
        f"decl E: ubit<32>[{n} bank {u}][{n}];\n"
        f"decl F: ubit<32>[{n}][{n}];\n"
        f"decl G: ubit<32>[{n} bank {u}][{n}];\n"
        + stage.format(n=n, unroll=f" unroll {u}", a="A", b="B", o="E", s=0)
        + "\n---\n"
        + stage.format(n=n, unroll="", a="C", b="D", o="F", s=1)
        + "\n---\n"
        + stage.format(n=n, unroll=f" unroll {u}", a="E", b="F", o="G", s=2)
    )
    return Kernel(
        "3mm",
        source,
        {
            "A": matrix(8, n, n),
            "B": matrix(9, n, n),
            "C": matrix(10, n, n),
            "D": matrix(11, n, n),
            "E": [0] * (n * n),
            "F": [0] * (n * n),
            "G": [0] * (n * n),
        },
        ["G"],
        unrolled,
    )


def _atax(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl x: ubit<32>[{n}];
decl y: ubit<32>[{n}];
decl tmp: ubit<32>[{n}];
for (let i = 0..{n}) {{
  let acc: ubit<32> = 0;
  ---
  for (let j = 0..{n}) {{
    acc := acc + A[i][j] * x[j]
  }}
  ---
  tmp[i] := acc
}}
---
for (let j = 0..{n}) {{
  y[j] := 0
}}
---
for (let i = 0..{n}) {{
  let t: ubit<32> = tmp[i];
  ---
  for (let j = 0..{n}) {{
    y[j] := y[j] + A[i][j] * t
  }}
}}
"""
    unrolled = f"""
decl A: ubit<32>[{n}][{n}];
decl A2: ubit<32>[{n}][{n} bank {u}];
decl x: ubit<32>[{n}];
decl y: ubit<32>[{n} bank {u}];
decl tmp: ubit<32>[{n}];
for (let i = 0..{n}) {{
  let acc: ubit<32> = 0;
  ---
  for (let j = 0..{n}) {{
    acc := acc + A[i][j] * x[j]
  }}
  ---
  tmp[i] := acc
}}
---
for (let j = 0..{n}) unroll {u} {{
  y[j] := 0
}}
---
for (let i = 0..{n}) {{
  let t: ubit<32> = tmp[i];
  ---
  for (let j = 0..{n}) unroll {u} {{
    y[j] := y[j] + A2[i][j] * t
  }}
}}
"""
    return Kernel(
        "atax",
        source,
        {
            "A": matrix(12, n, n),
            "x": vector(13, n),
            "y": [0] * n,
            "tmp": [0] * n,
        },
        ["y"],
        unrolled,
        duplicated={"A2": "A"},
    )


def _bicg(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl s: ubit<32>[{n}];
decl q: ubit<32>[{n}];
decl p: ubit<32>[{n}];
decl r: ubit<32>[{n}];
for (let j = 0..{n}) {{
  s[j] := 0
}}
---
for (let i = 0..{n}) {{
  let rv: ubit<32> = r[i];
  ---
  for (let j = 0..{n}) {{
    s[j] := s[j] + rv * A[i][j]
  }}
  ---
  let acc: ubit<32> = 0;
  ---
  for (let j = 0..{n}) {{
    acc := acc + A[i][j] * p[j]
  }}
  ---
  q[i] := acc
}}
"""
    unrolled = f"""
decl A: ubit<32>[{n}][{n} bank {u}];
decl A2: ubit<32>[{n}][{n}];
decl s: ubit<32>[{n} bank {u}];
decl q: ubit<32>[{n}];
decl p: ubit<32>[{n}];
decl r: ubit<32>[{n}];
for (let j = 0..{n}) unroll {u} {{
  s[j] := 0
}}
---
for (let i = 0..{n}) {{
  let rv: ubit<32> = r[i];
  ---
  for (let j = 0..{n}) unroll {u} {{
    s[j] := s[j] + rv * A[i][j]
  }}
  ---
  let acc: ubit<32> = 0;
  ---
  for (let j = 0..{n}) {{
    acc := acc + A2[i][j] * p[j]
  }}
  ---
  q[i] := acc
}}
"""
    return Kernel(
        "bicg",
        source,
        {
            "A": matrix(14, n, n),
            "s": [0] * n,
            "q": [0] * n,
            "p": vector(15, n),
            "r": vector(16, n),
        },
        ["s", "q"],
        unrolled,
        duplicated={"A2": "A"},
    )


def _cholesky(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    if (j < i) {{
      let w: ubit<32> = A[i][j];
      ---
      for (let k = 0..{n}) {{
        if (k < j) {{
          w := w - A[i][k] * A[j][k]
        }}
      }}
      ---
      A[i][j] := w / A[j][j]
    }}
  }}
  ---
  let d: ubit<32> = A[i][i];
  ---
  for (let k = 0..{n}) {{
    if (k < i) {{
      d := d - A[i][k] * A[i][k]
    }}
  }}
  ---
  A[i][i] := d
}}
"""
    return Kernel(
        "cholesky",
        source,
        {"A": matrix(17, n, n, lo=8, hi=15)},
        ["A"],
    )


def _doitgen(n: int, u: int) -> Kernel:
    # A is (r, q, p) flattened to 2-D: A[r*n + q][p].
    nr_nq = n * n
    source = f"""
decl A: ubit<32>[{nr_nq}][{n}];
decl C4: ubit<32>[{n}][{n}];
decl sum: ubit<32>[{n}];
for (let rq = 0..{nr_nq}) {{
  for (let p = 0..{n}) {{
    let acc: ubit<32> = 0;
    ---
    for (let s = 0..{n}) {{
      acc := acc + A[rq][s] * C4[s][p]
    }}
    ---
    sum[p] := acc
  }}
  ---
  for (let p = 0..{n}) {{
    A[rq][p] := sum[p]
  }}
}}
"""
    # The unrolled variant writes a separate output array (Aout) because A
    # itself cannot carry both orientations: its inner dimension is read
    # sequentially (by s) and written in parallel (by p). Each (r, q) row
    # reads only itself, so the values are identical.
    unrolled = f"""
decl A: ubit<32>[{nr_nq}][{n}];
decl Aout: ubit<32>[{nr_nq}][{n} bank {u}];
decl C4: ubit<32>[{n}][{n} bank {u}];
decl sum: ubit<32>[{n} bank {u}];
for (let rq = 0..{nr_nq}) {{
  for (let s = 0..{n}) {{
    let a_val: ubit<32> = A[rq][s];
    ---
    for (let p = 0..{n}) unroll {u} {{
      if (s == 0) {{
        sum[p] := a_val * C4[s][p]
      }} else {{
        sum[p] := sum[p] + a_val * C4[s][p]
      }}
    }}
  }}
  ---
  for (let p = 0..{n}) unroll {u} {{
    Aout[rq][p] := sum[p]
  }}
}}
"""
    return Kernel(
        "doitgen",
        source,
        {
            "A": matrix(18, nr_nq, n),
            "C4": matrix(19, n, n),
            "sum": [0] * n,
        },
        ["A"],
        unrolled,
        unrolled_extra={"Aout": [0] * (nr_nq * n)},
        unrolled_outputs=["Aout"],
    )


def _durbin(n: int, u: int) -> Kernel:
    source = f"""
decl r: ubit<32>[{n}];
decl y: ubit<32>[{n}];
decl z: ubit<32>[{n}];
decl scal: ubit<32>[2];
y[0] := 0 - r[0]
---
scal[0] := 0 - r[0]
---
scal[1] := 1
---
for (let k = 1..{n}) {{
  scal[1] := (1 - scal[0] * scal[0]) * scal[1]
  ---
  let acc: ubit<32> = 0;
  ---
  for (let i = 0..{n}) {{
    if (i < k) {{
      acc := acc + r[k - 1 - i] * y[i]
    }}
  }}
  ---
  scal[0] := (0 - (r[k] + acc)) / scal[1]
  ---
  let alpha: ubit<32> = scal[0];
  ---
  for (let i = 0..{n}) {{
    if (i < k) {{
      z[i] := y[i] + alpha * y[k - 1 - i]
    }}
  }}
  ---
  for (let i = 0..{n}) {{
    if (i < k) {{
      y[i] := z[i]
    }}
  }}
  ---
  y[k] := alpha
}}
"""
    return Kernel(
        "durbin",
        source,
        {"r": vector(20, n), "y": [0] * n, "z": [0] * n, "scal": [0, 0]},
        ["y"],
    )


def _gemver(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl u1: ubit<32>[{n}];
decl v1: ubit<32>[{n}];
decl u2: ubit<32>[{n}];
decl v2: ubit<32>[{n}];
decl w: ubit<32>[{n}];
decl x: ubit<32>[{n}];
decl y: ubit<32>[{n}];
decl z: ubit<32>[{n}];
for (let i = 0..{n}) {{
  let u1v: ubit<32> = u1[i];
  ---
  let u2v: ubit<32> = u2[i];
  ---
  for (let j = 0..{n}) {{
    A[i][j] := A[i][j] + u1v * v1[j] + u2v * v2[j]
  }}
}}
---
for (let i = 0..{n}) {{
  let acc: ubit<32> = x[i];
  ---
  for (let j = 0..{n}) {{
    acc := acc + 3 * A[j][i] * y[j]
  }}
  ---
  x[i] := acc
}}
---
for (let i = 0..{n}) {{
  x[i] := x[i] + z[i]
}}
---
for (let i = 0..{n}) {{
  let acc2: ubit<32> = w[i];
  ---
  for (let j = 0..{n}) {{
    acc2 := acc2 + 2 * A[i][j] * x[j]
  }}
  ---
  w[i] := acc2
}}
"""
    return Kernel(
        "gemver",
        source,
        {
            "A": matrix(21, n, n),
            "u1": vector(22, n),
            "v1": vector(23, n),
            "u2": vector(24, n),
            "v2": vector(25, n),
            "w": [0] * n,
            "x": vector(26, n),
            "y": vector(27, n),
            "z": vector(28, n),
        },
        ["A", "x", "w"],
    )


def _gesummv(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl B: ubit<32>[{n}][{n}];
decl x: ubit<32>[{n}];
decl y: ubit<32>[{n}];
for (let i = 0..{n}) {{
  let s1: ubit<32> = 0;
  ---
  let s2: ubit<32> = 0;
  ---
  for (let j = 0..{n}) {{
    let xv: ubit<32> = x[j];
    ---
    s1 := s1 + A[i][j] * xv;
    s2 := s2 + B[i][j] * xv
  }}
  ---
  y[i] := 2 * s1 + 3 * s2
}}
"""
    unrolled = f"""
decl A: ubit<32>[{n} bank {u}][{n}];
decl B: ubit<32>[{n} bank {u}][{n}];
decl x: ubit<32>[{n}];
decl y: ubit<32>[{n} bank {u}];
for (let i = 0..{n}) unroll {u} {{
  let s1: ubit<32> = 0;
  ---
  let s2: ubit<32> = 0;
  ---
  for (let j = 0..{n}) {{
    let xv: ubit<32> = x[j];
    ---
    s1 := s1 + A[i][j] * xv;
    s2 := s2 + B[i][j] * xv
  }}
  ---
  y[i] := 2 * s1 + 3 * s2
}}
"""
    return Kernel(
        "gesummv",
        source,
        {
            "A": matrix(29, n, n),
            "B": matrix(30, n, n),
            "x": vector(31, n),
            "y": [0] * n,
        },
        ["y"],
        unrolled,
    )


def _gramschmidt(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl R: ubit<32>[{n}][{n}];
decl Q: ubit<32>[{n}][{n}];
for (let k = 0..{n}) {{
  let nrm: ubit<32> = 0;
  ---
  for (let i = 0..{n}) {{
    nrm := nrm + A[i][k] * A[i][k]
  }}
  ---
  R[k][k] := nrm + 1
  ---
  let rkk: ubit<32> = R[k][k];
  ---
  for (let i = 0..{n}) {{
    Q[i][k] := A[i][k] / rkk
  }}
  ---
  for (let j = 0..{n}) {{
    if (j > k) {{
      let acc: ubit<32> = 0;
      ---
      for (let i = 0..{n}) {{
        acc := acc + Q[i][k] * A[i][j]
      }}
      ---
      R[k][j] := acc
      ---
      let rkj: ubit<32> = R[k][j];
      ---
      for (let i = 0..{n}) {{
        A[i][j] := A[i][j] - Q[i][k] * rkj
      }}
    }}
  }}
}}
"""
    return Kernel(
        "gramschmidt",
        source,
        {
            "A": matrix(32, n, n),
            "R": [0] * (n * n),
            "Q": [0] * (n * n),
        },
        ["Q", "R"],
    )


def _lu(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    if (j < i) {{
      let w: ubit<32> = A[i][j];
      ---
      for (let k = 0..{n}) {{
        if (k < j) {{
          w := w - A[i][k] * A[k][j]
        }}
      }}
      ---
      A[i][j] := w / A[j][j]
    }}
  }}
  ---
  for (let j = 0..{n}) {{
    if (j >= i) {{
      let w2: ubit<32> = A[i][j];
      ---
      for (let k = 0..{n}) {{
        if (k < i) {{
          w2 := w2 - A[i][k] * A[k][j]
        }}
      }}
      ---
      A[i][j] := w2
    }}
  }}
}}
"""
    return Kernel("lu", source, {"A": matrix(33, n, n, lo=8, hi=15)}, ["A"])


def _ludcmp(n: int, u: int) -> Kernel:
    lu_body = _lu(n, u).source.strip()
    source = f"""
{lu_body}
---
for (let i = 0..{n}) {{
  let w: ubit<32> = b[i];
  ---
  for (let j = 0..{n}) {{
    if (j < i) {{
      w := w - A[i][j] * yv[j]
    }}
  }}
  ---
  yv[i] := w
}}
---
for (let ii = 0..{n}) {{
  let i: ubit<32> = {n - 1} - ii;
  ---
  let w2: ubit<32> = yv[i];
  ---
  for (let j = 0..{n}) {{
    if (j > i) {{
      w2 := w2 - A[i][j] * xv[j]
    }}
  }}
  ---
  xv[i] := w2 / A[i][i]
}}
"""
    source = (
        f"decl b: ubit<32>[{n}];\n"
        f"decl yv: ubit<32>[{n}];\n"
        f"decl xv: ubit<32>[{n}];\n" + source
    )
    return Kernel(
        "ludcmp",
        source,
        {
            "A": matrix(34, n, n, lo=8, hi=15),
            "b": vector(35, n),
            "yv": [0] * n,
            "xv": [0] * n,
        },
        ["xv"],
    )


def _mvt(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl x1: ubit<32>[{n}];
decl x2: ubit<32>[{n}];
decl y1: ubit<32>[{n}];
decl y2: ubit<32>[{n}];
for (let i = 0..{n}) {{
  let acc: ubit<32> = x1[i];
  ---
  for (let j = 0..{n}) {{
    acc := acc + A[i][j] * y1[j]
  }}
  ---
  x1[i] := acc
}}
---
for (let i = 0..{n}) {{
  let acc2: ubit<32> = x2[i];
  ---
  for (let j = 0..{n}) {{
    acc2 := acc2 + A[j][i] * y2[j]
  }}
  ---
  x2[i] := acc2
}}
"""
    unrolled = f"""
decl A: ubit<32>[{n} bank {u}][{n}];
decl A2: ubit<32>[{n}][{n} bank {u}];
decl x1: ubit<32>[{n} bank {u}];
decl x2: ubit<32>[{n} bank {u}];
decl y1: ubit<32>[{n}];
decl y2: ubit<32>[{n}];
for (let i = 0..{n}) unroll {u} {{
  let acc: ubit<32> = x1[i];
  ---
  for (let j = 0..{n}) {{
    acc := acc + A[i][j] * y1[j]
  }}
  ---
  x1[i] := acc
}}
---
for (let i = 0..{n}) unroll {u} {{
  let acc2: ubit<32> = x2[i];
  ---
  for (let j = 0..{n}) {{
    acc2 := acc2 + A2[j][i] * y2[j]
  }}
  ---
  x2[i] := acc2
}}
"""
    return Kernel(
        "mvt",
        source,
        {
            "A": matrix(36, n, n),
            "x1": vector(37, n),
            "x2": vector(38, n),
            "y1": vector(39, n),
            "y2": vector(40, n),
        },
        ["x1", "x2"],
        unrolled,
        duplicated={"A2": "A"},
    )


def _symm(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl B: ubit<32>[{n}][{n}];
decl C: ubit<32>[{n}][{n}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    let bij: ubit<32> = B[i][j];
    ---
    let temp2: ubit<32> = 0;
    ---
    for (let k = 0..{n}) {{
      if (k < i) {{
        C[k][j] := C[k][j] + 2 * bij * A[i][k]
        ---
        temp2 := temp2 + B[k][j] * A[i][k]
      }}
    }}
    ---
    C[i][j] := 3 * C[i][j] + 2 * bij * A[i][i] + 2 * temp2
  }}
}}
"""
    return Kernel(
        "symm",
        source,
        {
            "A": matrix(41, n, n),
            "B": matrix(42, n, n),
            "C": matrix(43, n, n),
        },
        ["C"],
    )


def _syr2k(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl B: ubit<32>[{n}][{n}];
decl C: ubit<32>[{n}][{n}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    C[i][j] := 3 * C[i][j]
  }}
}}
---
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    let acc: ubit<32> = 0;
    ---
    for (let k = 0..{n}) {{
      acc := acc + A[j][k] * B[i][k] + B[j][k] * A[i][k]
    }}
    ---
    C[i][j] := C[i][j] + 2 * acc
  }}
}}
"""
    unrolled = f"""
decl A: ubit<32>[{n}][{n}];
decl A2: ubit<32>[{n} bank {u}][{n}];
decl B: ubit<32>[{n}][{n}];
decl B2: ubit<32>[{n} bank {u}][{n}];
decl C: ubit<32>[{n}][{n} bank {u}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) unroll {u} {{
    C[i][j] := 3 * C[i][j]
  }}
}}
---
for (let i = 0..{n}) {{
  for (let k = 0..{n}) {{
    let aik: ubit<32> = A[i][k];
    ---
    let bik: ubit<32> = B[i][k];
    ---
    for (let j = 0..{n}) unroll {u} {{
      C[i][j] := C[i][j] + 2 * (A2[j][k] * bik + B2[j][k] * aik)
    }}
  }}
}}
"""
    return Kernel(
        "syr2k",
        source,
        {
            "A": matrix(44, n, n),
            "B": matrix(45, n, n),
            "C": matrix(46, n, n),
        },
        ["C"],
        unrolled,
        duplicated={"A2": "A", "B2": "B"},
    )


def _syrk(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl C: ubit<32>[{n}][{n}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    C[i][j] := 3 * C[i][j]
  }}
}}
---
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    let acc: ubit<32> = 0;
    ---
    for (let k = 0..{n}) {{
      acc := acc + A[i][k] * A[j][k]
    }}
    ---
    C[i][j] := C[i][j] + 2 * acc
  }}
}}
"""
    unrolled = f"""
decl A: ubit<32>[{n}][{n}];
decl A2: ubit<32>[{n} bank {u}][{n}];
decl C: ubit<32>[{n}][{n} bank {u}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) unroll {u} {{
    C[i][j] := 3 * C[i][j]
  }}
}}
---
for (let i = 0..{n}) {{
  for (let k = 0..{n}) {{
    let aik: ubit<32> = A[i][k];
    ---
    for (let j = 0..{n}) unroll {u} {{
      C[i][j] := C[i][j] + 2 * aik * A2[j][k]
    }}
  }}
}}
"""
    return Kernel(
        "syrk",
        source,
        {"A": matrix(47, n, n), "C": matrix(48, n, n)},
        ["C"],
        unrolled,
        duplicated={"A2": "A"},
    )


def _trisolv(n: int, u: int) -> Kernel:
    source = f"""
decl L: ubit<32>[{n}][{n}];
decl x: ubit<32>[{n}];
decl b: ubit<32>[{n}];
for (let i = 0..{n}) {{
  let w: ubit<32> = b[i];
  ---
  for (let j = 0..{n}) {{
    if (j < i) {{
      w := w - L[i][j] * x[j]
    }}
  }}
  ---
  x[i] := w / L[i][i]
}}
"""
    return Kernel(
        "trisolv",
        source,
        {
            "L": matrix(49, n, n, lo=8, hi=15),
            "x": [0] * n,
            "b": vector(50, n),
        },
        ["x"],
    )


def _trmm(n: int, u: int) -> Kernel:
    source = f"""
decl A: ubit<32>[{n}][{n}];
decl B: ubit<32>[{n}][{n}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) {{
    let temp: ubit<32> = B[i][j];
    ---
    for (let k = 0..{n}) {{
      if (k > i) {{
        temp := temp + A[k][i] * B[k][j]
      }}
    }}
    ---
    B[i][j] := 2 * temp
  }}
}}
"""
    unrolled = f"""
decl A: ubit<32>[{n}][{n}];
decl B: ubit<32>[{n}][{n} bank {u}];
for (let i = 0..{n}) {{
  for (let j = 0..{n}) unroll {u} {{
    let temp: ubit<32> = B[i][j];
    ---
    for (let k = 0..{n}) {{
      if (k > i) {{
        temp := temp + A[k][i] * B[k][j]
      }}
    }}
    ---
    B[i][j] := 2 * temp
  }}
}}
"""
    return Kernel(
        "trmm",
        source,
        {"A": matrix(51, n, n), "B": matrix(52, n, n)},
        ["B"],
        unrolled,
    )


_BUILDERS: Dict[str, Callable[[int, int], Kernel]] = {
    "gemm": _gemm,
    "2mm": _two_mm,
    "3mm": _three_mm,
    "atax": _atax,
    "bicg": _bicg,
    "cholesky": _cholesky,
    "doitgen": _doitgen,
    "durbin": _durbin,
    "gemver": _gemver,
    "gesummv": _gesummv,
    "gramschmidt": _gramschmidt,
    "lu": _lu,
    "ludcmp": _ludcmp,
    "mvt": _mvt,
    "symm": _symm,
    "syr2k": _syr2k,
    "syrk": _syrk,
    "trisolv": _trisolv,
    "trmm": _trmm,
}

ALL_KERNELS = sorted(_BUILDERS)
UNROLLABLE = sorted(
    ["gemm", "2mm", "3mm", "atax", "bicg", "doitgen", "gesummv", "mvt", "syrk", "syr2k", "trmm"]
)


def get_kernel(name: str, n: int = 4, unroll: int = 2) -> Kernel:
    """Build one PolyBench kernel at problem size ``n``."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(ALL_KERNELS)}"
        ) from None
    return builder(n, unroll)


def polybench_kernels(n: int = 4, unroll: int = 2) -> List[Kernel]:
    """All 19 kernels of the linear-algebra category."""
    return [get_kernel(name, n, unroll) for name in ALL_KERNELS]
