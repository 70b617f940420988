"""Pinned output of the mini-Dahlia front end and of the HLS model.

For each PolyBench kernel, plain and (where it has one) unrolled, at
n = 2 and 4, ``tests/goldens/dahlia_frontend.json`` holds the sha256 of
the Calyx IL that :func:`compile_dahlia` prints and of the HLS report
under both ``pipeline_innermost`` settings. A refactor of the parser, the
type checker, the lowering, the Calyx backend or the HLS model must leave
every digest unchanged; a differing key names the kernel and the output.

Run ``pytest tests/test_dahlia_golden.py --update-goldens`` after an
*intentional* change to rewrite the file, then review its diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.frontends.dahlia import compile_dahlia, parse, typecheck
from repro.hls import HlsConfig, schedule_program
from repro.ir.printer import print_program
from repro.workloads.polybench import ALL_KERNELS, get_kernel

GOLDEN = Path(__file__).resolve().parent / "goldens" / "dahlia_frontend.json"
SIZES = (2, 4)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hls_text(source: str, pipeline_innermost: bool) -> str:
    report = schedule_program(
        typecheck(parse(source)), HlsConfig(pipeline_innermost=pipeline_innermost)
    )
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


def frontend_digests() -> Dict[str, str]:
    """``kernel/variant/n=N/output`` -> sha256 of that output's text."""
    digests: Dict[str, str] = {}
    for n in SIZES:
        for name in ALL_KERNELS:
            kernel = get_kernel(name, n=n, unroll=2)
            variants = {"plain": kernel.source, "unrolled": kernel.unrolled_source}
            for variant, source in variants.items():
                if source is None:
                    continue
                key = f"{name}/{variant}/n={n}"
                digests[f"{key}/il"] = _sha(print_program(compile_dahlia(source).program))
                for pipelined in (True, False):
                    digests[f"{key}/hls-pipeline-{pipelined}"] = _sha(
                        _hls_text(source, pipelined)
                    )
    return digests


def test_frontend_output_matches_golden(request):
    digests = frontend_digests()
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    pinned = json.loads(GOLDEN.read_text())
    differing = sorted(k for k in pinned.keys() | digests.keys() if pinned.get(k) != digests.get(k))
    assert not differing, (
        f"front-end output differs from {GOLDEN.name} at: {', '.join(differing)}; "
        "if the change is intentional, run `pytest tests/test_dahlia_golden.py "
        "--update-goldens` and review the diff"
    )
