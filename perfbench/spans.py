"""Per-layer spans, recorded from the benchmark's side of each layer call.

Layers the benchmark calls itself (frontends, lint, backends) are timed
through :meth:`LayerTracer.call`. Layers reached inside other layers (the
pass manager and the simulation testbench, which the differential oracle
drives) are timed by wrappers that :meth:`LayerTracer.install` puts on
their entry points for the duration of a ``with`` block; the originals are
restored on exit. With tracing off the benchmark uses :func:`untraced` and
installs nothing, so end-to-end runs pay no tracing cost.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple, Union


def untraced(layer: str, fn: Callable, *args, **kwargs):
    """The tracing-off stand-in for :meth:`LayerTracer.call`."""
    return fn(*args, **kwargs)


class LayerTracer:
    """Busy seconds per layer, summed over the spans recorded for it."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self._installed: List[Tuple[type, str, object]] = []

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``layer``."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] += time.perf_counter() - start

    def install(
        self, owner: type, attr: str, layer: Union[str, Callable[..., str]]
    ) -> None:
        """Record every call of the method ``owner.attr`` as a span.

        ``layer`` is a layer name, or a function of the call's arguments
        that returns one (so one wrapper can split a layer by pass name).
        """
        original = owner.__dict__[attr]
        name_of = layer if callable(layer) else (lambda *_args, **_kw: layer)
        seconds = self.seconds

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[name_of(*args, **kwargs)] += time.perf_counter() - start

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
