#!/usr/bin/env python3
"""Measure the parallel sweep runner: serial vs parallel bench wall-clock.

Runs a set of sweep benches twice — once with OMR_JOBS=1 (the exact serial
path) and once with OMR_JOBS=<jobs> — byte-compares their stdout tables and
report JSON (they must be identical: that is the runner's contract), and
records the wall-clock speedups into BENCH_parallel.json.

Typical use:

  tools/run_parallel_bench.py --jobs 8 --out BENCH_parallel.json

Smaller tensors (the default here is OMR_MB=8) keep the measurement loop
fast; pass --mb 100 for paper-scale runs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def detect_host_cpus(affinity=None, cpu_count=None):
    """CPUs actually available to this process.

    Prefers the scheduler affinity mask (respects cgroup and taskset
    limits, which os.cpu_count() ignores) and falls back to
    os.cpu_count() when affinity detection is unavailable or fails, and
    to 1 when even that returns nothing.
    """
    affinity = affinity if affinity is not None else getattr(
        os, "sched_getaffinity", None)
    cpu_count = cpu_count if cpu_count is not None else os.cpu_count
    if affinity is not None:
        try:
            n = len(affinity(0))
            if n > 0:
                return n
        except OSError:
            pass
    return cpu_count() or 1


def self_test() -> int:
    """Unit checks for detect_host_cpus with injected fakes."""
    checks = [
        ("real detection returns a positive count",
         detect_host_cpus() >= 1),
        ("affinity mask wins",
         detect_host_cpus(affinity=lambda pid: {0, 1, 2},
                          cpu_count=lambda: 64) == 3),
        ("failing affinity falls back to cpu_count",
         detect_host_cpus(affinity=_raise_oserror,
                          cpu_count=lambda: 8) == 8),
        ("empty affinity mask falls back to cpu_count",
         detect_host_cpus(affinity=lambda pid: set(),
                          cpu_count=lambda: 8) == 8),
        ("undetectable host defaults to 1",
         detect_host_cpus(affinity=_raise_oserror,
                          cpu_count=lambda: None) == 1),
    ]
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if failed:
        print(f"{len(failed)} self-test check(s) failed")
        return 1
    print("self-test passed")
    return 0


def _raise_oserror(pid):
    raise OSError("no affinity support")


# Sweep-heavy benches on the grid harness (bench::Sweep / the runner).
DEFAULT_BENCHES = [
    "bench_fig04_allreduce_time",
    "bench_fig05_dense_methods",
    "bench_fig06_sparse_methods",
    "bench_fig07_sparse_scalability",
    "bench_fig15_block_size",
    "bench_fig21_loss_recovery",
]


def build(build_dir: str, targets) -> str:
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
         "--target", *targets],
        check=True,
    )
    return build_dir


def run_bench(exe: str, jobs: int, mb: float, report_path: str):
    env = dict(os.environ)
    env["OMR_JOBS"] = str(jobs)
    env["OMR_MB"] = str(mb)
    env["OMR_REPORT_JSON"] = report_path
    t0 = time.monotonic()
    proc = subprocess.run([exe], env=env, capture_output=True, text=True)
    wall_s = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{exe} (OMR_JOBS={jobs}) failed:\n{proc.stderr}")
    report = ""
    if os.path.exists(report_path):
        with open(report_path) as f:
            report = f.read()
        os.unlink(report_path)
    return wall_s, proc.stdout, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=detect_host_cpus(),
                    help="parallel job count to compare against serial")
    ap.add_argument("--mb", type=float, default=8.0,
                    help="tensor size in MB (OMR_MB) for the sweep benches")
    ap.add_argument("--bench", action="append", default=None,
                    help="bench target(s) to run (default: the sweep set)")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--skip-build", action="store_true")
    ap.add_argument("--out", default="BENCH_parallel.json")
    ap.add_argument("--self-test", action="store_true",
                    help="run the CPU-detection unit checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    benches = args.bench or DEFAULT_BENCHES
    build_dir = args.build_dir
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(REPO, build_dir)
    if not args.skip_build:
        build(build_dir, benches)

    # On a single-CPU host a "parallel" sweep cannot run concurrently:
    # wall-clock ratios measure scheduler noise plus synchronization
    # overhead, not speedup. Keep the correctness byte-compare but skip
    # the speedup numbers and stamp the reason into the report.
    host_cpus = detect_host_cpus()
    single_cpu = host_cpus <= 1
    if single_cpu:
        print("host has 1 CPU: recording correctness only, "
              "skipping wall-clock speedups")

    results = []
    identical = True
    for name in benches:
        exe = os.path.join(build_dir, "bench", name)
        if not os.path.exists(exe):
            sys.exit(f"missing bench binary: {exe} (build it first)")
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            report_path = tmp.name
        serial_s, serial_out, serial_rep = run_bench(
            exe, 1, args.mb, report_path)
        parallel_s, parallel_out, parallel_rep = run_bench(
            exe, args.jobs, args.mb, report_path)
        same = serial_out == parallel_out and serial_rep == parallel_rep
        identical = identical and same
        entry = {
            "bench": name,
            "jobs": args.jobs,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "outputs_identical": same,
        }
        if single_cpu:
            entry["speedup"] = None
        else:
            entry["speedup"] = (round(serial_s / parallel_s, 2)
                                if parallel_s else 0.0)
        results.append(entry)
        speedup_txt = ("speedup   n/a" if single_cpu
                       else f"speedup {entry['speedup']:5.2f}")
        print(f"{name:34s} serial {serial_s:7.2f}s  "
              f"x{args.jobs} {parallel_s:7.2f}s  "
              f"{speedup_txt}  "
              f"{'identical' if same else 'OUTPUT MISMATCH'}")

    doc = {
        "schema": "omnireduce.bench_parallel.v2",
        "host_cpus": host_cpus,
        "omr_mb": args.mb,
        "results": results,
    }
    if single_cpu:
        doc["speedup_skip_reason"] = (
            "host_cpus == 1: wall-clock speedup not recorded (a single "
            "CPU serializes the parallel path, so the ratio measures "
            "synchronization overhead, not speedup)")
    out_path = args.out
    if not os.path.isabs(out_path):
        out_path = os.path.join(REPO, out_path)
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path}")
    if not identical:
        sys.exit("FAIL: parallel output differs from serial output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
