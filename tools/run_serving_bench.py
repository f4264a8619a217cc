#!/usr/bin/env python3
"""Run the PS-serving tail-latency bench and wrap it into BENCH_serving.json.

Builds and runs bench_fig_serving (the p50/p99/p999 lookup/update latency
matrix over shards x cache capacity x spine oversubscription, each cell with
and without a co-tenant training job), validates the bench's JSON document
against the omnireduce.bench_serving.v1 schema (cell count, quantile
ordering, hit-rate bounds), and wraps it with host metadata.

Typical use:

  tools/run_serving_bench.py --out BENCH_serving.json

Pass --smoke for a fast CI-scale run (1k requests/client over a 2^17 key
space instead of 8k over 2^20); the smoke flag is recorded in the output.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH = "bench_fig_serving"

# The bench sweeps shards {1,2,4} x cache {0,4096,32768} x oversub {1,8}
# x trainer {off,on}.
EXPECTED_CELLS = 3 * 3 * 2 * 2

CELL_KEYS = (
    "shards", "cache", "oversubscription", "trainer", "hit_rate", "qps",
    "finish_ns", "trainer_finish_ns", "lookup_p50_ns", "lookup_p99_ns",
    "lookup_p999_ns", "update_p50_ns", "update_p99_ns", "update_p999_ns",
)


def build(build_dir: str) -> str:
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(REPO, build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", REPO, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True,
        )
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4),
         "--target", BENCH],
        check=True,
    )
    return build_dir


def validate(doc: dict) -> list:
    """Schema check for the bench document; returns a list of problems."""
    problems = []
    if doc.get("schema") != "omnireduce.bench_serving.v1":
        problems.append(f"unexpected schema: {doc.get('schema')!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or len(cells) != EXPECTED_CELLS:
        problems.append(
            f"expected {EXPECTED_CELLS} cells, got "
            f"{len(cells) if isinstance(cells, list) else type(cells)}")
        return problems
    for i, cell in enumerate(cells):
        missing = [k for k in CELL_KEYS if k not in cell]
        if missing:
            problems.append(f"cell {i}: missing keys {missing}")
            continue
        if not 0.0 <= cell["hit_rate"] <= 1.0:
            problems.append(f"cell {i}: hit_rate {cell['hit_rate']} not in "
                            "[0, 1]")
        if cell["qps"] <= 0 or cell["finish_ns"] <= 0:
            problems.append(f"cell {i}: non-positive qps/finish")
        for lane in ("lookup", "update"):
            p50 = cell[f"{lane}_p50_ns"]
            p99 = cell[f"{lane}_p99_ns"]
            p999 = cell[f"{lane}_p999_ns"]
            if not p50 <= p99 <= p999:
                problems.append(
                    f"cell {i}: {lane} quantiles not ordered "
                    f"({p50} / {p99} / {p999})")
        if cell["trainer"] and cell["trainer_finish_ns"] <= 0:
            problems.append(f"cell {i}: trainer cell without trainer finish")
        if cell["cache"] == 0 and cell["hit_rate"] != 0.0:
            problems.append(f"cell {i}: hits without a cache")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="fast run (1k requests/client, 2^17 keys)")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--skip-build", action="store_true")
    ap.add_argument("--out", default="BENCH_serving.json")
    args = ap.parse_args()

    build_dir = args.build_dir
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(REPO, build_dir)
    if not args.skip_build:
        build(build_dir)

    exe = os.path.join(build_dir, "bench", BENCH)
    if not os.path.exists(exe):
        sys.exit(f"missing bench binary: {exe} (build it first)")

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        bench_json = tmp.name
    cmd = [exe, "--out", bench_json]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"{BENCH} failed:\n{proc.stderr}")
    with open(bench_json) as f:
        bench_doc = json.load(f)
    os.unlink(bench_json)

    problems = validate(bench_doc)
    if problems:
        sys.exit("bench output failed schema validation:\n  " +
                 "\n  ".join(problems))

    doc = {
        "schema": "omnireduce.bench_serving_report.v1",
        "host_cpus": os.cpu_count() or 1,
        "platform": platform.platform(),
        "bench": bench_doc,
    }
    out_path = args.out
    if not os.path.isabs(out_path):
        out_path = os.path.join(REPO, out_path)
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
