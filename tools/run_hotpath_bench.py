#!/usr/bin/env python3
"""Build and run the hot-path wall-clock harness; emit BENCH_hotpaths.json.

Drives bench/bench_hotpath_wallclock (see docs/PERFORMANCE.md):

  1. configures + builds a Release tree (unless --skip-build),
  2. without --baseline-exe, runs the harness once and writes its result
     set,
  3. with --baseline-exe (the same harness built at the baseline commit),
     runs the two harnesses in --pairs pairs (the first pair runs the
     baseline first, and the order alternates) and writes, per row, the
     median and quartiles of each side's wall-clock, the pairs the current
     build won, and whether the simulated outputs (completion time,
     messages, rounds, retransmissions) were identical in every run.

One run per side mixes host noise into a speedup: on a shared VM an
unchanged row can read 1.9x. Only rows whose wins and quartiles separate
back a claim.

Typical use, recording a perf PR:

  # once, a Release harness built from the baseline commit's checkout:
  cmake -S <baseline checkout> -B <dir> -DCMAKE_BUILD_TYPE=Release
  cmake --build <dir> --target bench_hotpath_wallclock
  # at the tip:
  tools/run_hotpath_bench.py --label change \\
      --baseline-exe <dir>/bench/bench_hotpath_wallclock --pairs 10 \\
      --out BENCH_hotpaths.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIM_KEYS = (
    "sim_completion_ns",
    "sim_total_messages",
    "sim_rounds",
    "sim_retransmissions",
)


def build(build_dir: str) -> str:
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", REPO, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True,
        )
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4),
         "--target", "bench_hotpath_wallclock"],
        check=True,
    )
    return build_dir


def run_harness(exe: str, label: str, smoke: bool) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    cmd = [exe, "--label", label, "--out", out_path]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out_path) as f:
        doc = json.load(f)
    os.unlink(out_path)
    return doc


def spread(samples: list) -> dict:
    """Median and quartiles (inclusive method) of a row's wall-clock."""
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def sim_outputs(row: dict) -> tuple:
    return tuple(row.get(k) for k in SIM_KEYS)


def compare(base_runs: list, cur_runs: list) -> list:
    """One row per benchmark both harnesses ran, over all pairs."""
    rows = []
    for first in cur_runs[0]["results"]:
        name = first["name"]
        base = [next((r for r in run["results"] if r["name"] == name), None)
                for run in base_runs]
        cur = [next(r for r in run["results"] if r["name"] == name)
               for run in cur_runs]
        if any(b is None for b in base):
            continue
        base_ms = [b["wall_ms"] for b in base]
        cur_ms = [c["wall_ms"] for c in cur]
        b, c = spread(base_ms), spread(cur_ms)
        row = {
            "name": name,
            "kind": first.get("kind"),
            "baseline_ms": b,
            "current_ms": c,
            "speedup": round(b["median"] / c["median"], 2)
            if c["median"] > 0 else 0.0,
            "wins": sum(cm < bm for bm, cm in zip(base_ms, cur_ms)),
            "pairs": len(cur_ms),
            "baseline_runs_ms": base_ms,
            "current_runs_ms": cur_ms,
        }
        if any(k in first for k in SIM_KEYS):
            row["sim_identical"] = (
                len({sim_outputs(r) for r in base + cur}) == 1)
        rows.append(row)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--build-dir", default="build-perf")
    ap.add_argument("--label", default="current")
    ap.add_argument("--smoke", action="store_true",
                    help="CI-scale workloads (seconds, noisy)")
    ap.add_argument("--baseline-exe",
                    help="bench_hotpath_wallclock built at the baseline "
                         "commit; runs both in alternating pairs")
    ap.add_argument("--pairs", type=int, default=5,
                    help="alternating baseline/current pairs (default 5)")
    ap.add_argument("--out", default="BENCH_hotpaths.json")
    ap.add_argument("--skip-build", action="store_true",
                    help="assume the harness binary is already built")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    build_dir = args.build_dir
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(REPO, build_dir)
    if not args.skip_build:
        build(build_dir)
    exe = os.path.join(build_dir, "bench", "bench_hotpath_wallclock")

    if not args.baseline_exe:
        doc = run_harness(exe, args.label, args.smoke)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
        return 0

    base_runs, cur_runs = [], []
    for p in range(args.pairs):
        order = [(args.baseline_exe, "baseline", base_runs),
                 (exe, args.label, cur_runs)]
        if p % 2 == 1:
            order.reverse()
        for path, label, runs in order:
            runs.append(run_harness(path, label, args.smoke))
        print(f"pair {p + 1}/{args.pairs} done", file=sys.stderr)

    doc = {
        "schema": "omnireduce.bench_hotpaths.v3",
        "generated_by": "tools/run_hotpath_bench.py",
        "host_cpus": os.cpu_count(),
        "smoke": args.smoke,
        "pairs": args.pairs,
        "order": "alternating: the first pair runs the baseline first",
        "comparison": compare(base_runs, cur_runs),
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    for r in doc["comparison"]:
        b, c = r["baseline_ms"], r["current_ms"]
        print(f"  {r['name']:28s} {b['median']:9.2f} [{b['q1']:.2f}, "
              f"{b['q3']:.2f}] -> {c['median']:9.2f} [{c['q1']:.2f}, "
              f"{c['q3']:.2f}] ms  {r['speedup']:.2f}x  "
              f"won {r['wins']}/{r['pairs']}")
    bad_sim = [r["name"] for r in doc["comparison"]
               if r.get("sim_identical") is False]
    if bad_sim:
        print(f"ERROR: simulated outputs diverged: {', '.join(bad_sim)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
