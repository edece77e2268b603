"""Read a traced run's spans and reduce them to per-layer figures.

A layer's self time is its span's duration minus the time its child
spans cover.  Spans are written per thread in end order, so every
child precedes its parent in the file; one forward pass with a map of
open parents computes self times without indexing every span.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from launch import COLUMNS


@dataclass
class Layer:
    """Totals of one span name inside the measured window."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    work: int = 0  # summed count column (words, messages)


@dataclass
class Trace:
    layers: dict[str, Layer] = field(default_factory=dict)
    #: Whole-run totals (set-up spans fall outside the window).
    lifetime_ns: dict[str, int] = field(default_factory=dict)
    #: trace id -> server.handle_recover duration, inside the window.
    handle_ns: dict[str, int] = field(default_factory=dict)

    def layer(self, name: str) -> Layer:
        return self.layers.get(name, Layer())

    def per_call_us(self, name: str) -> float:
        layer = self.layer(name)
        return layer.total_ns / layer.calls / 1e3 if layer.calls else 0.0

    def per_work_us(self, name: str, self_time: bool = False) -> float:
        layer = self.layer(name)
        spent = layer.self_ns if self_time else layer.total_ns
        return spent / layer.work / 1e3 if layer.work else 0.0


def load(path: Path) -> tuple[dict, list[array]]:
    with open(str(path) + ".json") as handle:
        header = json.load(handle)
    count = header["count"]
    columns = []
    with open(str(path) + ".bin", "rb") as handle:
        for _ in COLUMNS:
            column = array("q")
            column.fromfile(handle, count)
            columns.append(column)
    return header, columns


def reduce(header: dict, columns: list[array], window: tuple[int, int]
           ) -> Trace:
    """Per-layer totals for spans that lie inside *window* (ns)."""
    names = header["names"]
    traces = header["traces"]
    handle = names.index("server.handle_recover") \
        if "server.handle_recover" in names else -1
    lo, hi = window
    calls = [0] * len(names)
    total = [0] * len(names)
    own = [0] * len(names)
    work = [0] * len(names)
    lifetime = [0] * len(names)
    children: dict[int, int] = {}
    out = Trace()
    for name, start, end, span_id, parent, trace, count in zip(*columns):
        duration = end - start
        lifetime[name] += duration
        covered = children.pop(span_id, 0)
        if parent:
            children[parent] = children.get(parent, 0) + duration
        if start < lo or end > hi:
            continue
        calls[name] += 1
        total[name] += duration
        own[name] += duration - covered
        work[name] += count
        if name == handle and trace >= 0:
            out.handle_ns[traces[trace]] = duration
    for index, name in enumerate(names):
        out.lifetime_ns[name] = lifetime[index]
        if calls[index]:
            out.layers[name] = Layer(calls[index], total[index], own[index],
                                     work[index])
    return out


def render(trace: Trace, client: Layer | None = None) -> str:
    """The self-time table, busiest layer first."""
    rows = dict(trace.layers)
    if client is not None:
        rows["client.request"] = client
    lines = [f"{'layer':<28}{'calls':>10}{'total ms':>12}{'self ms':>12}"
             f"{'self us/call':>14}"]
    for name, layer in sorted(rows.items(), key=lambda kv: -kv[1].self_ns):
        lines.append(
            f"{name:<28}{layer.calls:>10}{layer.total_ns / 1e6:>12.1f}"
            f"{layer.self_ns / 1e6:>12.1f}"
            f"{layer.self_ns / layer.calls / 1e3:>14.2f}")
    return "\n".join(lines)
