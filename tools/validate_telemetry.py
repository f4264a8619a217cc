#!/usr/bin/env python3
"""Validate telemetry output emitted by omr_cli (or any RunReport producer).

Usage:
    tools/validate_telemetry.py report.json [trace.json]

Checks, exiting nonzero on the first failure:
  - report.json is an `omnireduce.run_report.v1` document with the
    stats/run/workers/totals/histograms/streams sections;
  - worker arrays match run.n_workers;
  - bytes conservation: traced_worker_payload_bytes equals
    sum(workers.data_bytes) + retransmit_payload_bytes (when tracing ran
    on a dedicated deployment);
  - trace.json (if given) is valid Chrome trace JSON: a traceEvents list
    whose span/instant events carry name/ph/pid/tid/ts, timestamps are
    monotone per (pid, tid) lane, and the retransmit_timer_fire /
    duplicate_resend / message_drop event counts equal the corresponding
    RunStats counters in report.json.

Run against a lossy DPDK run to exercise every check, e.g.:
    build/examples/omr_cli --workers 4 --mb 2 --loss 0.002 --transport dpdk \
        --report report.json --trace trace.json
    tools/validate_telemetry.py report.json trace.json
"""
import json
import sys

REPORT_SCHEMA = "omnireduce.run_report.v1"
REPORT_ARRAY_SCHEMA = "omnireduce.run_report_array.v1"


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def check(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def validate_report_doc(path: str) -> dict:
    """Validate a report file; array documents validate every entry and
    return the first (trace cross-checks only make sense for single runs)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") == REPORT_ARRAY_SCHEMA:
        reports = doc.get("reports", [])
        check(bool(reports), "report array is empty")
        for report in reports:
            validate_report(report)
        return reports[0]
    return validate_report(doc)


def validate_report(report: dict) -> dict:
    check(report.get("schema") == REPORT_SCHEMA,
          f"report schema is {report.get('schema')!r}, want {REPORT_SCHEMA}")
    for section in ("stats", "run", "workers", "totals", "histograms",
                    "streams"):
        check(section in report, f"report missing section {section!r}")
    stats, run = report["stats"], report["run"]
    for key in ("completion_ns", "total_messages", "retransmissions",
                "dropped_messages", "rounds", "acks", "duplicate_resends",
                "rto_ns", "round_model_ns", "verified"):
        check(key in stats, f"stats missing {key!r}")
    n_workers = run.get("n_workers", 0)
    check(n_workers > 0, "run.n_workers must be positive")
    workers = report["workers"]
    for key in ("finish_ns", "data_bytes"):
        check(len(workers.get(key, [])) == n_workers,
              f"workers.{key} length != n_workers")
    totals = report["totals"]
    traced = totals.get("traced_worker_payload_bytes", 0)
    if traced > 0:
        expected = sum(workers["data_bytes"]) + totals.get(
            "retransmit_payload_bytes", 0)
        check(traced == expected,
              f"bytes conservation violated: traced {traced} != "
              f"fresh+retransmit {expected}")
    for name in ("message_wire_bytes", "round_gap_ns"):
        hist = report["histograms"].get(name)
        check(isinstance(hist, dict) and "counts" in hist and "bounds" in hist,
              f"histograms.{name} malformed")
        check(len(hist["counts"]) == len(hist["bounds"]) + 1,
              f"histograms.{name}: counts must have one overflow bin")
    return report


def validate_trace(path: str, report: dict) -> dict:
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    check(isinstance(events, list) and events, "traceEvents missing or empty")
    counts: dict[str, int] = {}
    last_ts: dict[tuple, float] = {}
    for e in events:
        check(isinstance(e, dict), "trace event is not an object")
        ph = e.get("ph")
        check(ph in ("M", "X", "i", "C"), f"unexpected ph {ph!r}")
        check("name" in e and "pid" in e, "trace event missing name/pid")
        if ph not in ("X", "i"):
            continue
        check("ts" in e and "tid" in e, "span/instant event missing ts/tid")
        counts[e["name"]] = counts.get(e["name"], 0) + 1
        lane = (e["pid"], e["tid"])
        check(e["ts"] >= last_ts.get(lane, float("-inf")),
              f"timestamps not monotone on lane {lane}")
        last_ts[lane] = e["ts"]
    stats = report["stats"]
    for event_name, stat_key in (("retransmit_timer_fire", "retransmissions"),
                                 ("duplicate_resend", "duplicate_resends"),
                                 ("message_drop", "dropped_messages")):
        check(counts.get(event_name, 0) == stats[stat_key],
              f"{event_name} events ({counts.get(event_name, 0)}) != "
              f"stats.{stat_key} ({stats[stat_key]})")
    return counts


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__)
        return 1
    report = validate_report_doc(sys.argv[1])
    summary = f"report OK ({sys.argv[1]})"
    if len(sys.argv) == 3:
        counts = validate_trace(sys.argv[2], report)
        summary += (f"; trace OK ({sys.argv[2]}, "
                    f"{sum(counts.values())} events)")
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
