"""In-memory spans recorded by the benchmark around calls into the program.

A span has a name, start, end, parent span and the id of the operation it
belongs to. Spans are recorded only in the benchmark's own code: to see
inside a public call, the benchmark first times the real call and then
re-enacts its steps by calling the same public functions again. The
re-enacted spans name the real call's span as their parent, so a span's
self time -- its duration minus the durations of its direct children --
is the part of the real call that no re-enacted step accounts for.
"""

from __future__ import annotations

import contextlib
import statistics
import time

# span name -> per-layer metric holding the median self time (ms)
SPAN_METRICS = {
    "filterbank.decompose": "filterbank.decompose_ms",
    "stats.score": "stats.score_ms",
    "stats.select": "stats.select_ms",
    "stats.whiten": "stats.whiten_ms",
    "separators.fastica": "separators.fastica_ms",
    "separators.sobi": "separators.sobi_ms",
    "separators.apply": "separators.apply_ms",
    "pipeline.proposed": "pipeline.proposed.self_ms",
    "pipeline.fastica": "pipeline.fastica.self_ms",
    "pipeline.sobi": "pipeline.sobi.self_ms",
    "metrics.evaluate": "metrics.evaluate.self_ms",
    "metrics.align": "metrics.align_ms",
    "metrics.bss_decompose": "metrics.bss_decompose_ms",
    "metrics.segsnr": "metrics.segsnr_ms",
    "metrics.overall_snr": "metrics.overall_snr_ms",
    "audio_io.read_wav": "audio_io.read_wav_ms",
    "audio_io.write_wav": "audio_io.write_wav_ms",
    "audio_io.decimate": "audio_io.decimate_ms",
    "audio_io.mix": "audio_io.mix_ms",
    "cli.mix": "cli.mix.self_ms",
    "cli.separate": "cli.separate.self_ms",
    "cli.evaluate": "cli.evaluate.self_ms",
}

# metric -> (span name, attribute): median of the attribute over those spans
COUNT_METRICS = {
    "filterbank.nodes": ("filterbank.decompose", "nodes"),
    "stats.nodes_scored": ("stats.score", "nodes"),
    "separators.fastica_iters": ("separators.fastica", "iterations"),
    "separators.sobi_sweeps": ("separators.sobi", "sweeps"),
}

# metric -> (span name, attribute): median over operations of the per-op sum
PER_OP_SUMS = {
    "audio_io.bytes_read": ("audio_io.read_wav", "bytes"),
    "audio_io.bytes_written": ("audio_io.write_wav", "bytes"),
}


class Tracer:
    """Collects spans in memory; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the span record so the caller can
        add counts to its `attrs`."""
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def reenact(self, parent: dict):
        """Spans opened inside become children of an already closed span."""
        self._stack.append(parent["id"])
        try:
            yield
        finally:
            self._stack.pop()


def self_times(spans) -> dict:
    """Span id -> duration minus the summed durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def top_level_call_seconds(spans) -> dict:
    """Operation id -> summed duration of that operation's real calls: the
    direct children of its "op" span (re-enacted steps hang below those)."""
    op_of = {s["id"]: s["op"] for s in spans if s["name"] == "op"}
    per_op = {}
    for s in spans:
        if s["parent"] in op_of:
            op = op_of[s["parent"]]
            per_op[op] = per_op.get(op, 0.0) + s["end"] - s["start"]
    return per_op


def layer_metrics(spans) -> dict:
    """Per-layer medians from the spans. A layer that the workload never
    calls reports 0: no time spent and nothing counted."""
    own = self_times(spans)
    out = {}
    for name, metric in SPAN_METRICS.items():
        values = [own[s["id"]] * 1e3 for s in spans if s["name"] == name]
        out[metric] = statistics.median(values) if values else 0.0
    for metric, (name, attr) in COUNT_METRICS.items():
        values = [s["attrs"][attr] for s in spans if s["name"] == name]
        out[metric] = statistics.median(values) if values else 0
    for metric, (name, attr) in PER_OP_SUMS.items():
        per_op = {s["op"]: 0 for s in spans if s["name"] == "op"}
        for s in spans:
            if s["name"] == name:
                per_op[s["op"]] += s["attrs"][attr]
        out[metric] = statistics.median(per_op.values()) if per_op else 0
    return out
