"""In-memory spans for the benchmark's traced passes.

A span is ``[name, start, end, parent, cell]``: the layer-qualified
name (``"engine.run"``, ``"dynamics.adjacency"``, ...), two
``perf_counter`` stamps, the index of the enclosing span (``-1`` at
the root) and the id of the cell it belongs to.  Spans are only kept
in memory while a pass runs and written out once at its end.

The layer of a span is the part of its name before the first dot.  A
span's *self time* is its duration minus the durations of its direct
children; children never overlap, because every span is opened and
closed on one thread in strict nesting order.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer", "NULL_TRACER", "layer_of"]


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``"engine.run"`` -> ``"engine"``)."""
    return name.split(".", 1)[0]


class Tracer:
    """Records nested spans; ``cell`` labels every span opened after it is set."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.cell: Optional[str] = None
        self._stack: List[int] = []

    def _open(self, name: str) -> List[Any]:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.cell]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: List[Any]) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span named *name*."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with every call recorded as a span named *name*."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self, name: str) -> Dict[str, float]:
        """``{"s": summed duration, "self_s": summed self time, "count": n}``
        of the spans named *name*."""
        selfs = self.self_times()
        total = own = 0.0
        count = 0
        for idx, (sname, start, end, _, _) in enumerate(self.spans):
            if sname == name:
                total += end - start
                own += selfs[idx]
                count += 1
        return {"s": total, "self_s": own, "count": count}

    def layer_self_times(self) -> Dict[str, Dict[str, float]]:
        """Self time per layer, per cell (``None`` cell keyed ``"-"``)."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, _, _, _, cell), own in zip(self.spans, self.self_times()):
            per_cell = out.setdefault(cell if cell is not None else "-", {})
            layer = layer_of(name)
            per_cell[layer] = per_cell.get(layer, 0.0) + own
        return out

    def write(self, path: str, **header: Any) -> None:
        """Write *header*, the per-cell and per-layer self times, then
        one line per span, as JSON lines."""
        by_cell = self.layer_self_times()
        by_layer: Dict[str, float] = {}
        for layers in by_cell.values():
            for layer, own in layers.items():
                by_layer[layer] = by_layer.get(layer, 0.0) + own
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "self_s_by_layer": by_layer,
                                 "self_s_by_cell": by_cell}) + "\n")
            for name, start, end, parent, cell in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "cell": cell}) + "\n")


class _NullTracer:
    """A tracer that records nothing (untraced passes)."""

    enabled = False

    def span(self, name: str):
        return nullcontext()


NULL_TRACER = _NullTracer()
