#!/usr/bin/env python3
"""Parse bench output into CSV files for plotting.

Usage:
    tools/bench_to_csv.py bench_output.txt out_dir/
    tools/bench_to_csv.py reports.json out_dir/

Text mode: each "====" banner starts a section; within a section,
contiguous runs of aligned table rows (first column 26 chars, then 12-char
cells) become one CSV named after the banner plus a running index for
multi-table figures.

JSON mode (input file ending in .json): ingests telemetry RunReport JSON —
either a single `omnireduce.run_report.v1` object (omr_cli --report) or an
`omnireduce.run_report_array.v1` container (bench binaries run with
OMR_REPORT_JSON=<path>) — and flattens one row per report into
run_reports.csv.
"""
import json
import os
import re
import sys

REPORT_SCHEMA = "omnireduce.run_report.v1"
REPORT_ARRAY_SCHEMA = "omnireduce.run_report_array.v1"

REPORT_COLUMNS = [
    "label",
    "completion_ms",
    "n_workers",
    "n_aggregators",
    "tensor_elements",
    "total_messages",
    "retransmissions",
    "dropped_messages",
    "rounds",
    "acks",
    "duplicate_resends",
    "rto_ns",
    "round_model_ns",
    "verified",
    "max_error",
    "mean_worker_data_bytes",
    "traced_worker_payload_bytes",
    "retransmit_payload_bytes",
    "wire_tx_bytes_total",
    "sim_events_executed",
]


def report_row(report: dict) -> list[str]:
    stats = report.get("stats", {})
    run = report.get("run", {})
    totals = report.get("totals", {})
    merged = {**totals, **run, **stats, "label": report.get("label", "")}
    return [str(merged.get(col, "")) for col in REPORT_COLUMNS]


def json_mode(src: str, out_dir: str) -> int:
    with open(src, encoding="utf-8") as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema == REPORT_ARRAY_SCHEMA:
        reports = doc.get("reports", [])
    elif schema == REPORT_SCHEMA:
        reports = [doc]
    else:
        print(f"unrecognized schema: {schema!r}")
        return 1
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "run_reports.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(REPORT_COLUMNS) + "\n")
        for report in reports:
            f.write(",".join(c.replace(",", ";") for c in report_row(report))
                    + "\n")
    print(f"wrote {len(reports)} report row(s) to {path}")
    return 0


def slugify(title: str) -> str:
    slug = re.sub(r"[^a-zA-Z0-9]+", "_", title).strip("_").lower()
    return slug[:60]


def split_row(line: str) -> list[str]:
    # bench_util.h prints: %-26s then %12s cells.
    first = line[:26].strip()
    rest = line[26:]
    cells = [rest[i : i + 12].strip() for i in range(0, len(rest), 12)]
    return [first] + [c for c in cells if c]


def looks_like_row(line: str) -> bool:
    if len(line) < 27 or line.startswith(("===", "---", "###")):
        return False
    head = line[:26]
    return bool(head.strip()) and not head.startswith(" ")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 1
    src, out_dir = sys.argv[1], sys.argv[2]
    if src.endswith(".json"):
        return json_mode(src, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(src, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()

    section = "preamble"
    table: list[list[str]] = []
    counter: dict[str, int] = {}
    written = 0

    def flush() -> None:
        nonlocal table, written
        if len(table) < 2:  # need header + at least one data row
            table = []
            return
        counter[section] = counter.get(section, 0) + 1
        name = f"{slugify(section)}_{counter[section]}.csv"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            for row in table:
                f.write(",".join(cell.replace(",", ";") for cell in row) + "\n")
        written += 1
        table = []

    for i, line in enumerate(lines):
        if line.startswith("====") and i + 1 < len(lines):
            flush()
            section = lines[i + 1].split("—")[0].strip() or section
        elif looks_like_row(line):
            table.append(split_row(line))
        else:
            flush()
    flush()
    print(f"wrote {written} CSV files to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
