#!/usr/bin/env python3
"""Run the multi-tenant fabric benchmark and wrap it into BENCH_tenancy.json.

Builds and runs bench_fig_tenancy (the J x J completion-time interference
matrix over three job profiles sharing a 2-rack fabric with an 8:1
oversubscribed spine, plus a weighted-fairness sweep over two identical
dense jobs), then wraps the bench's own JSON document with host metadata.

Typical use:

  tools/run_tenancy_bench.py --out BENCH_tenancy.json

Pass --smoke for a fast CI-scale run (tensors divided by 8); the smoke flag
is recorded in the output so readers can tell the scales apart.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH = "bench_fig_tenancy"


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="fast run (profile tensors divided by 8)")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--skip-build", action="store_true")
    ap.add_argument("--out", default="BENCH_tenancy.json")
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

    doc = {
        "schema": "omnireduce.bench_tenancy_report.v1",
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
