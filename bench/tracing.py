"""Spans and values recorded around the benchmark's calls into lilyseg.

A traced operation wraps each public call it makes in a span named after
the layer (``geometry``, ``pointprocess``, ``solver``, ``structure``,
``stats``) and records the counts the call returns.  Spans are kept in
memory and written out once, when the run ends.

The same traced operation also runs under :class:`MemoryRecorder`, which
turns each span into a tracemalloc peak instead of a duration; that pass
runs apart from the timed one, so tracemalloc's cost never enters a time.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Tuple

MIB = float(1 << 20)

# (metric, kind, source, model, unit).  Kinds:
#   time  - median over operations of the summed self time of the source spans,
#           each operation's best over the passes
#   value - median over the count prefix of the per-operation value
#   total - sum over the count prefix (set-up included)
#   peak  - largest tracemalloc peak of the source spans in the memory pass
#   op    - median over operations of a whole traced operation, each the
#           best of its passes (given by the caller, as untraced)
LAYER_METRICS: List[Tuple[str, str, str, Optional[int], str]] = [
    ("geometry.table_build_s", "time", "geometry.table_build", None, "s"),
    ("geometry.table_mib", "value", "geometry.table_mib", None, "MiB-computed"),
    ("pointprocess.sample_s", "time", "pointprocess.sample", None, "s"),
    ("pointprocess.screen_s", "time", "pointprocess.screen", None, "s"),
    ("pointprocess.sample_peak_mib", "peak", "pointprocess.sample", None, "MiB"),
    ("pointprocess.resamples", "total", "pointprocess.resamples", None, "count"),
]
for _model in (1, 2):
    _m = f".m{_model}"
    LAYER_METRICS += [
        ("solver.fixed_point_s" + _m, "time", "solver.fixed_point", _model, "s"),
        ("solver.fixed_point_steps" + _m, "value", "solver.fixed_point_steps", _model, "count"),
        ("solver.verify_s" + _m, "time", "solver.verify", _model, "s"),
        ("solver.chain_s" + _m, "time", "solver.chain", _model, "s"),
        ("solver.chain_steps" + _m, "value", "solver.chain_steps", _model, "count"),
        ("solver.greedy_s" + _m, "time", "solver.greedy", _model, "s"),
        ("solver.greedy_events" + _m, "value", "solver.greedy_events", _model, "count"),
        ("structure.analyze_s" + _m, "time", "structure.analyze", _model, "s"),
        ("structure.contacts" + _m, "value", "structure.contacts", _model, "count"),
        ("structure.clusters" + _m, "value", "structure.clusters", _model, "count"),
    ]
LAYER_METRICS += [
    ("solver.fixed_point_peak_mib", "peak", "solver.fixed_point", None, "MiB"),
    ("structure.analyze_peak_mib", "peak", "structure.analyze", None, "MiB"),
    ("stats.replication_s", "time", "stats.replication", None, "s"),
    ("stats.certified_germs", "value", "stats.certified_germs", None, "count"),
    ("bench.traced_op_p50_s", "op", "op", None, "s"),
]


class Tracer:
    """Records spans (name, model, operation, parent, start, end) and values."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.values: List[Tuple[int, str, Optional[int], float]] = []
        self.op = -1  # -1 while setting up
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, model: Optional[int] = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "model": model,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def value(self, name: str, value: float, model: Optional[int] = None) -> None:
        self.values.append((self.op, name, model, value))

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "values": self.values}, fh)
            fh.write("\n")


class MemoryRecorder:
    """Same interface as :class:`Tracer`; records each span's tracemalloc peak."""

    def __init__(self) -> None:
        self.peaks: Dict[str, float] = {}

    @contextmanager
    def span(self, name: str, model: Optional[int] = None):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - base) / MIB
            self.peaks[name] = max(self.peaks.get(name, 0.0), peak)

    def value(self, name: str, value: float, model: Optional[int] = None) -> None:
        pass


class _NoTrace:
    """Same interface again, recording nothing: the untraced path."""

    def span(self, name: str, model: Optional[int] = None):
        return nullcontext()

    def value(self, name: str, value: float, model: Optional[int] = None) -> None:
        pass


NO_TRACE = _NoTrace()


def _self_times(spans: List[dict]) -> List[Tuple[dict, float]]:
    """Each span with its duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s, s["end"] - s["start"] - covered))
    return out


def layer_metrics(
    tracer: Tracer, memory: MemoryRecorder, prefix_ops: int, op_p50_s: float, ops_per_pass: int
) -> Dict[str, dict]:
    """Per-layer metrics from a traced run; layers a workload never calls read 0.

    Operation ``i`` of the run is operation ``i % ops_per_pass`` of its pass.
    """
    per_op: Dict[Tuple[str, Optional[int]], Dict[int, float]] = {}
    for span, own in _self_times(tracer.spans):
        if span["name"] == "op":
            continue
        slot = per_op.setdefault((span["name"], span["model"]), {})
        slot[span["op"]] = slot.get(span["op"], 0.0) + own
    values: Dict[Tuple[str, Optional[int]], List[float]] = {}
    totals: Dict[str, float] = {}
    for op, name, model, value in tracer.values:
        if op < prefix_ops:
            values.setdefault((name, model), []).append(value)
            totals[name] = totals.get(name, 0.0) + value

    out: Dict[str, dict] = {}
    for metric, kind, source, model, unit in LAYER_METRICS:
        if kind == "time":
            best: Dict[int, float] = {}
            for op, seconds in per_op.get((source, model), {}).items():
                slot = op % ops_per_pass
                best[slot] = min(best.get(slot, seconds), seconds)
            samples = list(best.values())
        elif kind == "value":
            samples = values.get((source, model), [])
        else:
            samples = []
        if kind == "total":
            value = totals.get(source, 0.0)
        elif kind == "peak":
            value = memory.peaks.get(source, 0.0)
        elif kind == "op":
            value = op_p50_s
        else:
            value = statistics.median(samples) if samples else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
