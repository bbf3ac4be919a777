#!/usr/bin/env python3
"""Per-layer metrics from a traced perfbench run.

Reads the driver's result JSON (written with --trace 1) and the Chrome
trace-event JSON it points to (obs::TraceWriter output: the library's own
spans plus the benchmark's spans around its calls into each module), computes
self-time per span name, and emits the per-layer metrics listed in
BENCHMARK.json. A span's self time is its duration minus the part of its
interval that its child spans cover.

Usage: trace_layers.py <driver-result.json>   (prints the metrics and a
self-time table per span name)
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load_events(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    events = []
    for e in trace["traceEvents"]:
        events.append({
            "name": e["name"],
            "start": float(e["ts"]),
            "end": float(e["ts"]) + float(e["dur"]),
            "id": e["args"]["id"],
            "parent": e["args"]["parent"],
        })
    return events


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(events: list[dict]) -> dict[int, float]:
    """Self time in microseconds, keyed by span id."""
    children = defaultdict(list)
    for e in events:
        children[e["parent"]].append((e["start"], e["end"]))
    return {
        e["id"]: (e["end"] - e["start"])
        - covered(children.get(e["id"], []), e["start"], e["end"])
        for e in events
    }


def self_time_table(events: list[dict]) -> dict[str, tuple[int, float]]:
    """Span name -> (count, summed self time in ms)."""
    selfs = self_times(events)
    table: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for e in events:
        table[e["name"]][0] += 1
        table[e["name"]][1] += selfs[e["id"]] / 1e3
    return {name: (c, ms) for name, (c, ms) in sorted(table.items())}


def ancestors(e: dict, by_id: dict[int, dict]):
    """The spans above `e`, innermost first."""
    parent = by_id.get(e["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# (name, unit) of every per-layer metric, in BENCHMARK.json order.
LAYER_METRICS = [
    ("engine.key_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.queue_ms", "ms"),
    ("engine.pool.task_wait_ms_p50", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.accounted_ratio", "ratio"),
    ("dtmc.build_ms", "ms"),
    ("dtmc.build_states_per_s", "1/s"),
    ("dtmc.bytes_per_state", "bytes"),
    ("pctl.plan_ms", "ms"),
    ("pctl.tasks_deduped", "count"),
    ("pctl.traversals_saved", "count"),
    ("reduce.quotient_ms", "ms"),
    ("reduce.state_ratio", "ratio"),
    ("reduce.lookup_ms", "ms"),
    ("mc.check_ms", "ms"),
    ("mc.transient_ns_per_nnz_step", "ns"),
    ("mc.bounded_ns_per_nnz_step", "ns"),
    ("la.spmm_ns_per_nnz.k1", "ns"),
    ("la.spmm_ns_per_nnz.k8", "ns"),
    ("la.spmm_ns_per_nnz.k1.scalar", "ns"),
    ("la.spmm_ns_per_nnz.k1.sse2", "ns"),
    ("la.spmm_ns_per_nnz.k1.avx2", "ns"),
    ("la.spmm_ns_per_nnz.k8.scalar", "ns"),
    ("la.spmm_ns_per_nnz.k8.sse2", "ns"),
    ("la.spmm_ns_per_nnz.k8.avx2", "ns"),
    ("la.spmm_speedup_threads4.k1", "ratio"),
    ("la.spmm_speedup_threads4.k8", "ratio"),
    ("la.bytes_per_step", "bytes-computed"),
    ("la.solve_iterations", "count"),
    ("la.solve_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
]


def layer_metrics(driver: dict, events: list[dict]) -> dict[str, float]:
    by_id = {e["id"]: e for e in events}
    loops = [e for e in events if e["name"] == "bench.loop"]
    if len(loops) != 1:
        raise ValueError(f"expected one bench.loop span, found {len(loops)}")
    lo, hi = loops[0]["start"], loops[0]["end"]
    in_loop = [e for e in events if lo <= e["start"] and e["end"] <= hi]

    def durations(name: str, spans: list[dict]) -> list[float]:
        return [(e["end"] - e["start"]) / 1e3 for e in spans if e["name"] == name]

    # Request accounting: the benchmark's signature probes plus the self time
    # of every span below engine.analyze, against the requests' total time.
    selfs = self_times(events)
    roots = {e["id"] for e in in_loop if e["name"] == "engine.analyze"}
    below = [e for e in in_loop
             if any(a["id"] in roots for a in ancestors(e, by_id))]
    key_ms = durations("engine.key", in_loop)
    root_ms = sum((by_id[r]["end"] - by_id[r]["start"]) / 1e3 for r in roots)
    accounted_ms = sum(key_ms) + sum(selfs[e["id"]] / 1e3 for e in below)

    builds = [e for e in events if e["name"] == "dtmc.build" and any(
        a["name"] == "bench.reference" for a in ancestors(e, by_id))]
    build_ms = [(e["end"] - e["start"]) / 1e3 for e in builds]

    requests = driver["traced_requests"]

    def ns_per_nnz_step(span: str, steps: str) -> float:
        work = sum(r["nnz"] * r[steps] for r in requests)
        spent_ns = sum(durations(span, in_loop)) * 1e6
        return spent_ns / work if work else 0.0

    metrics = dict(driver["layers"])
    metrics.update({
        "engine.key_ms": mean(key_ms),
        "engine.accounted_ratio": accounted_ms / root_ms if root_ms else 0.0,
        "dtmc.build_ms": mean(build_ms),
        "dtmc.build_states_per_s":
            driver["reference_states"] / (sum(build_ms) / 1e3)
            if build_ms else 0.0,
        "pctl.plan_ms": mean(durations("pctl.plan", in_loop)),
        "reduce.quotient_ms": mean(durations("reduce.quotient", events)),
        "mc.check_ms": mean(durations("engine.check", in_loop)),
        "mc.transient_ns_per_nnz_step":
            ns_per_nnz_step("mc.transientSweep", "transient_steps"),
        "mc.bounded_ns_per_nnz_step":
            ns_per_nnz_step("mc.boundedTraversal", "bounded_steps"),
        "la.solve_ms": mean(durations("la.solve.power", events)),
    })
    missing = [name for name, _ in LAYER_METRICS if name not in metrics]
    if missing:
        raise ValueError(f"per-layer metrics missing: {missing}")
    return {name: metrics[name] for name, _ in LAYER_METRICS}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        driver = json.load(f)
    events = load_events(driver["trace_file"])
    units = dict(LAYER_METRICS)
    for name, value in layer_metrics(driver, events).items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"\n{'span':36s} {'count':>8s} {'self ms':>12s}")
    for name, (count, ms) in self_time_table(events).items():
        print(f"{name:36s} {count:8d} {ms:12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
