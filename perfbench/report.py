"""Reduce the raw result document of perfbench.cpp to the metrics.

The benchmark binary (perfbench.cpp) writes samples, exact counts and, in a traced
run, spans. This module turns them into the metrics BENCHMARK.json
declares: end-to-end metrics from an untraced run, per-layer metrics
(span self times, counts, ratios) from a traced run.
"""

import math
import re
import statistics

# name -> unit. Order is the print order.
END_TO_END = {
    "measure_s": "s",
    "ingest_events_per_s": "events/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "partracer.run_s": "s",
    "partracer.timed_calls": "count",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "zm4.events_recorded": "count",
    "zm4.events_lost": "count",
    "hybrid.protocol_errors": "count",
    "trace.events": "count",
    "trace.intervals": "count",
    "trace.activity_s": "s",
    "trace.utilization_s": "s",
    "trace.analysis_share": "ratio",
    "trace.save_s": "s",
    "query.answer_s": "s",
    "bench.measure_self_s": "s",
    "measure.samples": "count",
    "live.publish_s": "s",
    "live.session_self_s": "s",
    "live.producer_stalls": "count/session",
    "live.collector_stalls": "count/session",
    "live.idle_cycles": "count/session",
    "live.ring_high_water": "slots",
    "live.buffer_high_water": "events",
    "live.dropped": "count",
    "trace.append_s": "s",
    "trace.read_events_per_s": "events/s",
    "query.states_ms": "ms",
    "query.event_rate_ms": "ms",
    "query.utilization_ms": "ms",
    "query.count_ms": "ms",
    "query.latency_ms": "ms",
    "query.rtt_ms": "ms",
    "query.window_count_ms": "ms",
    "query.states_jobs1_ms": "ms",
    "query.count_jobs1_ms": "ms",
    "parallel.states_speedup": "ratio",
    "parallel.count_speedup": "ratio",
    "query.samples": "count",
    "tracing.measure_overhead_s": "s",
    "tracing.query_overhead_ms": "ms",
    "fail_ratio": "ratio",
}

QUERY_KINDS = ("states", "event_rate", "utilization", "count",
               "latency", "rtt", "window_count")

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def valid_metric_name(name):
    return METRIC_NAME.fullmatch(name) is not None


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    """Nearest-rank q-th percentile, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def covered(interval, children):
    """Length of the part of `interval` covered by the union of the
    `children` intervals (which may nest, overlap or stick out)."""
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children
                     if min(hi, e) > max(lo, s))
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it its
    direct children cover. `spans` are (name, start, end, parent,
    request, count) rows; the result is indexed like `spans`."""
    children = [[] for _ in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children[parent].append((span[1], span[2]))
    return [(s[2] - s[1]) - covered((s[1], s[2]), children[i])
            for i, s in enumerate(spans)]


def _by_name(spans, selfs):
    """name -> list of self times, in recording order."""
    out = {}
    for span, self_time in zip(spans, selfs):
        out.setdefault(span[0], []).append(self_time)
    return out


def _sum_children_per_parent(spans, name):
    """Total duration of `name` spans under each parent span."""
    totals = {}
    for span in spans:
        if span[0] == name and span[3] >= 0:
            totals[span[3]] = totals.get(span[3], 0.0) + span[2] - span[1]
    return list(totals.values())


def end_to_end(raw):
    ingest = raw["ingest"]
    return {
        "measure_s": median(raw["measure_s"]),
        "ingest_events_per_s":
            ingest["events"] / ingest["seconds"]
            if ingest["seconds"] > 0 else None,
        "query_p50_ms": percentile(raw["query_ms"], 50),
        "query_p95_ms": percentile(raw["query_ms"], 95),
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    spans = raw["spans"]
    selfs = self_times(spans)
    named = _by_name(spans, selfs)

    def med(name):
        return median(named.get(name, []))

    def ratio(num, den):
        return num / den if num is not None and den else None

    counts = raw["counts"]
    ingest = raw["ingest"]
    sessions = max(1, ingest["sessions"])
    run = med("partracer.run")
    activity = med("trace.activity")
    utilization = med("trace.utilization")
    reads = [s for s in spans if s[0] == "trace.read"]
    read_time = sum(s[2] - s[1] for s in reads)

    m = {
        "partracer.run_s": run,
        "partracer.timed_calls": raw["timed_measurements"],
        "sim.events": counts["sim.events"],
        "sim.ns_per_event":
            (run - activity - utilization) / counts["sim.events"] * 1e9
            if None not in (run, activity, utilization)
            and counts["sim.events"] else None,
        "trace.activity_s": activity,
        "trace.utilization_s": utilization,
        "trace.analysis_share":
            ratio(activity + utilization, run)
            if None not in (activity, utilization) else None,
        "trace.save_s": med("trace.save"),
        "query.answer_s": med("query.answer"),
        "bench.measure_self_s": median(named.get("measure", []) +
                                       named.get("setup.measure", [])),
        "measure.samples":
            len(raw["measure_s"]) + len(raw["measure_traced_s"]),
        "live.publish_s": med("live.publish"),
        "live.session_self_s": med("live.session"),
        "live.producer_stalls": ingest["producer_stalls"] / sessions,
        "live.collector_stalls": ingest["collector_stalls"] / sessions,
        "live.idle_cycles": ingest["idle_cycles"] / sessions,
        "live.ring_high_water": ingest["ring_high_water"],
        "live.buffer_high_water": ingest["buffer_high_water"],
        "live.dropped": ingest["dropped"],
        "trace.append_s":
            median(_sum_children_per_parent(spans, "trace.append")),
        "trace.read_events_per_s":
            sum(s[5] for s in reads) / read_time if read_time > 0 else None,
        "query.samples": len(raw["query_ms"]) + len(raw["query_traced_ms"]),
        "fail_ratio": raw["failed"] / max(1, raw["attempted"]),
    }
    for key in ("zm4.events_recorded", "zm4.events_lost",
                "hybrid.protocol_errors", "trace.events",
                "trace.intervals"):
        m[key] = counts[key]
    for kind in QUERY_KINDS:
        m[f"query.{kind}_ms"] = _ms(med(f"query.{kind}"))
    for kind in ("states", "count"):
        serial = _ms(med(f"query.{kind}_jobs1"))
        m[f"query.{kind}_jobs1_ms"] = serial
        m[f"parallel.{kind}_speedup"] = ratio(serial,
                                              m[f"query.{kind}_ms"])
    m["tracing.measure_overhead_s"] = _difference(
        raw["measure_traced_s"], raw["measure_s"])
    m["tracing.query_overhead_ms"] = _difference(
        raw["query_traced_ms"], raw["query_ms"])
    return m


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def _difference(traced, untraced):
    if not traced or not untraced:
        return None
    return median(traced) - median(untraced)


def reduce(raw):
    """The result object printed as the benchmark's last line, plus the
    list of problems that make it incorrect."""
    traced = raw["traced"]
    values = per_layer(raw) if traced else end_to_end(raw)
    units = PER_LAYER if traced else END_TO_END
    problems = list(raw["errors"])
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            problems.append(f"metric {name} could not be measured")
            continue
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": raw["failed"] == 0 and not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return result, problems
