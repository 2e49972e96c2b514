#!/usr/bin/env python3
"""Regenerate the README "How fast is it" table from the committed
bench JSON files.

The benches each write a flat JSON object of measured numbers; this
script renders the committed copies (BENCH_query.json,
BENCH_reader.json, BENCH_faults.json, BENCH_live.json,
BENCH_sim.json) into the markdown table between the `<!-- bench-table:begin -->` /
`<!-- bench-table:end -->` markers in README.md, so the README never
drifts from the numbers CI's bench-gate job actually enforces.

Usage, from the repository root:

    ./build/bench/bench_query_throughput    # refresh BENCH_query.json
    ./build/bench/bench_reader_throughput   # refresh BENCH_reader.json
    ./build/bench/bench_fault_recovery      # refresh BENCH_faults.json
    ./build/bench/bench_live_ingest         # refresh BENCH_live.json
    ./build/bench/bench_sim_throughput      # refresh BENCH_sim.json
    python3 tools/bench_table.py            # rewrite the README table

Pass --stdout to print the table instead of editing README.md.
"""

import argparse
import json
import pathlib
import sys

BEGIN = "<!-- bench-table:begin -->"
END = "<!-- bench-table:end -->"


def mevents(rates, key):
    """Format rates[key] (events/s) as M events/s, or n/a."""
    value = rates.get(key)
    return f"{value / 1e6:.1f}" if value else "n/a"


def kevents(rates, key):
    """Format rates[key] (events/s) as k events/s, or n/a."""
    value = rates.get(key)
    return f"{value / 1e3:.0f}" if value else "n/a"


def ratio(rates, key):
    value = rates.get(key)
    return f"{value:.2f}x" if value else "n/a"


def millis(rates, key):
    value = rates.get(key)
    return f"{value:.0f} ms" if value is not None else "n/a"


def count(rates, key):
    value = rates.get(key)
    return f"{value:.0f}" if value is not None else "n/a"


def render(query, reader, faults, live, sim):
    rows = [
        "| pipeline | `--jobs 1` | `--jobs 4` | jobs=4 vs jobs=1 |",
        "|---|---|---|---|",
        "| `filter ... | count` | {} | {} | {} |".format(
            mevents(query, "filter_count_sharded_jobs1_events_per_sec"),
            mevents(query, "filter_count_sharded_jobs4_events_per_sec"),
            ratio(query, "filter_count_scaling_jobs4_vs_jobs1"),
        ),
        "| `states` | {} | {} | {} |".format(
            mevents(query, "states_sharded_jobs1_events_per_sec"),
            mevents(query, "states_sharded_jobs4_events_per_sec"),
            ratio(query, "states_scaling_jobs4_vs_jobs1"),
        ),
        "| `window 100us | utilization` | {} | - | - |".format(
            mevents(query, "windowed_utilization_events_per_sec"),
        ),
        "| `rtt begin=... end=...` | {} | - | - |".format(
            mevents(query, "rtt_events_per_sec"),
        ),
        "",
        "Many streams (1M events over 4,096 streams with ids 8 apart,"
        " one shard, M events/s):",
        "",
        "| `states` | `latency bins=50` | `window 100ms | count` |",
        "|---|---|---|",
        "| {} | {} | {} |".format(
            mevents(query, "many_streams_states_events_per_sec"),
            mevents(query, "many_streams_latency_events_per_sec"),
            mevents(query, "many_streams_window_count_events_per_sec"),
        ),
        "",
        "Raw decode (no query): {} M records/s with `nextBatch()`, "
        "{}x over the old per-record reader.".format(
            mevents(reader, "block_next_batch_events_per_sec"),
            ratio(reader, "block_vs_per_record_speedup").rstrip("x"),
        ),
        "",
        "Live ingestion (producer -> SPSC ring -> collector -> sink,"
        " M events/s):",
        "",
        "| transport ceiling (raw ring) | `block` | `shed-newest` | `shed-oldest` |",
        "|---|---|---|---|",
        "| {} | {} | {} | {} |".format(
            mevents(live, "ring_transfer_events_per_sec"),
            mevents(live, "block_events_per_sec"),
            mevents(live, "shed_newest_events_per_sec"),
            mevents(live, "shed_oldest_events_per_sec"),
        ),
        "",
        "Simulation kernel (ladder-queue scheduler, 6.5M-event "
        "schedule, ~2M standing events):",
        "",
        "| pure scheduler | vs seed heap | vs reference heap "
        "| full machine (scaled-100x) | nodes in 512 MB |",
        "|---|---|---|---|---|",
        "| {} M events/s | {} | {} | {} k trace events/s | {} |".format(
            mevents(sim, "scheduler_ladder_events_per_sec"),
            ratio(sim, "speedup_ladder_vs_seed"),
            ratio(sim, "speedup_ladder_vs_reference"),
            kevents(sim, "full_machine_scaled100x_trace_events_per_sec"),
            count(sim, "machine_nodes_at_512mb"),
        ),
        "",
        "Fault recovery (faulty-moderate vs fault-free): "
        "{} completion overhead, kill noticed after {} "
        "({} jobs reassigned, {} duplicate results suppressed)."
        .format(
            f"{faults['overhead_pct']:.0f} %"
            if "overhead_pct" in faults else "n/a",
            millis(faults, "recovery_latency_ms"),
            count(faults, "reassigned"),
            count(faults, "duplicates_suppressed"),
        ),
    ]
    # Markdown needs the literal | inside code spans escaped in tables.
    rows = [r.replace("filter ... | count", "filter ... \\| count")
             .replace("window 100us | utilization",
                      "window 100us \\| utilization")
             .replace("window 100ms | count", "window 100ms \\| count")
            for r in rows]
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stdout", action="store_true",
                        help="print the table instead of editing README.md")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    query = json.loads((root / "BENCH_query.json").read_text())
    reader = json.loads((root / "BENCH_reader.json").read_text())
    faults = json.loads((root / "BENCH_faults.json").read_text())
    live = json.loads((root / "BENCH_live.json").read_text())
    sim = json.loads((root / "BENCH_sim.json").read_text())
    table = render(query, reader, faults, live, sim)

    if args.stdout:
        print(table)
        return 0

    readme = root / "README.md"
    text = readme.read_text()
    begin = text.find(BEGIN)
    end = text.find(END)
    if begin < 0 or end < 0 or end < begin:
        sys.exit(f"README.md is missing the {BEGIN} / {END} markers")
    updated = (text[: begin + len(BEGIN)] + "\n" + table + "\n"
               + text[end:])
    if updated != text:
        readme.write_text(updated)
        print("README.md table updated")
    else:
        print("README.md table already current")
    return 0


if __name__ == "__main__":
    sys.exit(main())
