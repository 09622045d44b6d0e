"""Per-layer metrics of a traced run.

Inputs: the service's span log (``--trace-log``), the launcher's
counters (``traced_server.py``, server and lanes), the client's own
round-trip times, and the ``stats`` reply taken after the timed phase.
A layer that does not run on a workload reports 0.

Times are means over the whole run, so that the parts of a request add
up to the whole; a span's *self* time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable

__all__ = ["PER_LAYER", "reduce"]

#: name -> unit, in the order BENCHMARK.json lists them
PER_LAYER: dict[str, str] = {
    "boot.import_s": "s",
    "boot.program_load_s": "s",
    "boot.lane_start_s": "s",
    "server.wire_ms": "ms",
    "server.request_self_ms": "ms",
    "parser.parse_query_ms": "ms",
    "admission.acquire_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.fill_ms": "ms",
    "cache.hit_ratio": "frac",
    "cache.stale_per_merge": "count",
    "telemetry.spans_per_request": "count",
    "workers.queue_wait_ms": "ms",
    "workers.dispatch_self_ms": "ms",
    "workers.ipc_bytes_per_query": "bytes",
    "router.prepare_ms": "ms",
    "router.delta_syncs_per_merge": "count",
    "engine.query_ms": "ms",
    "engine.expansions_per_s": "1/s",
    "ortree.expand_us": "us",
    "ortree.children_per_expand": "count",
    "unify.calls_per_expand": "count",
    "unify.unify_us": "us",
    "unify.rename_us": "us",
    "policies.updates_per_query": "count",
    "policies.update_us": "us",
    "session.merge_ms": "ms",
    "persist.delta_entries_per_merge": "count",
    "wal.append_ms": "ms",
    "wal.fsync_ms": "ms",
    "wal.recover_ms": "ms",
    "traced.throughput_qps": "1/s",
    "traced.query_p99_ms": "ms",
    "traced.merge_p50_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def read_counters(path: Path) -> dict:
    """The launcher's totals: the server's file plus every lane's."""
    merged: dict = {"import_s": 0.0, "layers": defaultdict(lambda: [0, 0.0, 0.0])}
    for p in [path, *sorted(path.parent.glob(path.name + ".lane-*"))]:
        data = json.loads(p.read_text())
        merged["import_s"] = data.get("import_s", merged["import_s"])
        for name, t in data["layers"].items():
            slot = merged["layers"][name]
            slot[0] += t["calls"]
            slot[1] += t["seconds"]
            slot[2] += t["extra"]
    return merged


def reduce(
    spans: list[dict],
    counters: dict,
    rtts: dict[str, float],
    stats: dict,
    merges: int,
    recover_s: float,
) -> dict[str, float]:
    """Every per-layer metric that the trace and counters give, by name
    (the ``traced.*`` ones are the client's own figures, added by the
    caller).  ``rtts`` maps request id to the client's round trip in
    seconds; ``merges`` counts store-changing merges."""
    by_trace: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_trace[s["trace"]].append(s)
    named: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def self_s(span: dict, trace: list[dict]) -> float:
        kids = [(k["start_s"], k["end_s"]) for k in trace if k["parent"] == span["span"]]
        return span["duration_s"] - _covered(kids)

    def child_s(span: dict, trace: list[dict], name: str) -> float:
        return sum(
            k["duration_s"] for k in trace if k["parent"] == span["span"] and k["name"] == name
        )

    roots = [s for s in named["request"] if s["parent"] is None]
    wire = [
        rtts[r["trace"]] - r["duration_s"] for r in roots if r["trace"] in rtts
    ]
    request_self = [self_s(r, by_trace[r["trace"]]) for r in roots]
    request_spans = sum(len(by_trace[r["trace"]]) for r in roots)
    lookups = [s for s in named["cache"] if not s["attrs"].get("fill")]
    fills = [s for s in named["cache"] if s["attrs"].get("fill")]
    dispatch_self = [self_s(s, by_trace[s["trace"]]) for s in named["lane-dispatch"]]
    engine = named["engine"]
    engine_s = sum(s["duration_s"] for s in engine)
    expansions = sum(s["attrs"].get("expansions") or 0 for s in engine)
    merge_self = [
        s["duration_s"] - child_s(s, by_trace[s["trace"]], "wal-append") for s in named["merge"]
    ]
    ipc = sum(lane["ipc_bytes_in"] + lane["ipc_bytes_out"] for lane in stats["lanes"])
    layers = counters["layers"]

    def per_call(name: str, scale: float) -> float:
        calls, seconds, _ = layers[name]
        return _ratio(seconds, calls) * scale

    expand_calls = layers["ortree.expand"][0]
    ms = 1000.0
    return {
        "boot.import_s": counters["import_s"],
        "boot.program_load_s": layers["program.from_source"][1],
        "boot.lane_start_s": layers["workers.pool_start"][1],
        "server.wire_ms": _mean(wire) * ms,
        "server.request_self_ms": _mean(request_self) * ms,
        "parser.parse_query_ms": per_call("parser.parse_query", ms),
        "admission.acquire_ms": _mean(s["duration_s"] for s in named["admission"]) * ms,
        "cache.lookup_ms": _mean(s["duration_s"] for s in lookups) * ms,
        "cache.fill_ms": _mean(s["duration_s"] for s in fills) * ms,
        "cache.hit_ratio": _ratio(sum(1 for s in lookups if s["attrs"].get("hit")), len(lookups)),
        "cache.stale_per_merge": _ratio(stats["cache"]["stale"], merges),
        "telemetry.spans_per_request": _ratio(request_spans, len(roots)),
        "workers.queue_wait_ms": _mean(s["duration_s"] for s in named["queue"]) * ms,
        "workers.dispatch_self_ms": _mean(dispatch_self) * ms,
        "workers.ipc_bytes_per_query": _ratio(ipc, len(engine)),
        "router.prepare_ms": _mean(s["duration_s"] for s in named["prepare"]) * ms,
        "router.delta_syncs_per_merge": _ratio(
            sum(1 for s in named["prepare"] if s["attrs"].get("synced_store")), merges
        ),
        "engine.query_ms": _ratio(engine_s, len(engine)) * ms,
        "engine.expansions_per_s": _ratio(expansions, engine_s),
        "ortree.expand_us": per_call("ortree.expand", 1e6),
        "ortree.children_per_expand": _ratio(
            layers["ortree.expand"][2], expand_calls
        ),
        "unify.calls_per_expand": _ratio(layers["unify.unify"][0], expand_calls),
        "unify.unify_us": per_call("unify.unify", 1e6),
        "unify.rename_us": per_call("unify.rename_clause", 1e6),
        "policies.updates_per_query": _ratio(
            layers["policies.update"][0], len(engine)
        ),
        "policies.update_us": per_call("policies.update", 1e6),
        "session.merge_ms": _mean(merge_self) * ms,
        "persist.delta_entries_per_merge": _ratio(
            layers["persist.store_delta"][2],
            layers["persist.store_delta"][0],
        ),
        "wal.append_ms": _mean(s["duration_s"] for s in named["wal-append"]) * ms,
        "wal.fsync_ms": _ratio(
            layers["wal.append"][2], layers["wal.append"][0]
        ) * ms,
        "wal.recover_ms": recover_s * ms,
    }
