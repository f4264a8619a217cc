#!/usr/bin/env python3
"""Record the bench suite and the host-timing harness in one schema.

Both modes write one envelope (schema omnireduce.bench_record.v1): the
mode, the commit, the host CPU count, the platform, the build type, the
toolchain (compiler id and version, C++ standard library and version),
the smoke flag, mode-specific totals and a `results` list.

  suite  Runs every bench binary (one per bench/bench_*.cpp, except the
         host-timing harness) serially at OMR_MB=4 OMR_JOBS=1. Per binary
         it records the wall-clock, the exit code, sha256 digests of its
         stdout and of its RunReport JSON (OMR_REPORT_JSON), if any, and
         from wait4 its peak RSS (maxrss_kb) and minor page faults
         (minflt).
         Every bench whose source uses bench::Sweep or
         runner::parallel_for_each runs a second time at
         OMR_JOBS=<host CPUs> and must print the same bytes.
         bench_fig_codec's CELL table is embedded with its acceptance
         gate, and the serving and tenancy benches' --out documents are
         embedded (the serving one checked against its schema). Writes
         BENCH_e2e.json.

         With --expect <record> it checks instead of recording: it runs
         each binary once at OMR_MB=4 OMR_JOBS=1, concurrently on the
         host CPUs (it keeps no wall-clock), compares its exit code and
         stdout and report sha256 with the record's row, and names every
         binary whose digest moved, that is missing, or that the record
         lacks; maxrss_kb and minflt are recorded but not compared. The
         digests depend on the toolchain (every golden input
         follows the standard library's unordered_set order), so when the
         record's toolchain stamp differs from the build's it runs nothing
         and says the toolchain differs; a record without a stamp is
         checked regardless. It writes a record only when --out is given.

  pairs  Runs bench_hotpath_wallclock and --baseline-exe (the same
         harness built at the baseline commit) serially, in alternating
         pairs; the first pair runs the baseline first. Per row it records
         the median and quartiles of both sides' wall-clock, the pairs the
         current build won and `sim_identical`: whether every run of both
         sides reported the same work units and simulated outputs. Writes
         BENCH_hotpaths.json.

Both read an existing build tree (--build-dir, default build); record from
a Release build:

  cmake -B build -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
  tools/bench_record.py suite
  tools/bench_record.py suite --only bench_fig_serving --smoke --out s.json
  tools/bench_record.py suite --expect BENCH_e2e.json
  tools/bench_record.py pairs --pairs 10 \\
      --baseline-exe <baseline build>/bench/bench_hotpath_wallclock
  tools/bench_record.py --self-test

A record is written in every case but --expect without --out; the exit
code is 1 when a bench fails, a check fails, outputs diverge or a digest
moved.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "omnireduce.bench_record.v1"
HARNESS = "bench_hotpath_wallclock"
OMR_MB = 4

# A bench whose source names one of these runs on the runner (the grid
# harness or the runner itself): its stdout and report must not depend on
# the job count.
RUNNER_MARKERS = ("bench::Sweep", "runner::parallel_for_each")

# Deterministic outputs of a harness row: equal in every run of both sides.
SIM_KEYS = (
    "work_units",
    "sim_completion_ns",
    "sim_total_messages",
    "sim_rounds",
    "sim_retransmissions",
)


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


def git(*args):
    return subprocess.run(["git", "-C", REPO, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def commit():
    """HEAD, with "-dirty" when tracked files other than the BENCH records
    differ from it; "unknown" outside a git checkout."""
    try:
        dirty = git("status", "--porcelain", "--untracked-files=no", "--",
                    ".", ":(exclude)BENCH_*.json")
        return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cache_value(build_dir, key):
    """A CMakeCache.txt entry of the build tree; None when unset."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip() or None
    except OSError:
        pass
    return None


def build_type(build_dir):
    return cache_value(build_dir, "CMAKE_BUILD_TYPE")


STDLIB_PROBE = b"""#include <cstddef>
#if defined(__GLIBCXX__)
libstdc++ _GLIBCXX_RELEASE __GLIBCXX__
#elif defined(_LIBCPP_VERSION)
libc++ _LIBCPP_VERSION
#endif
"""


def toolchain(build_dir):
    """The build tree's compiler (CMake's id and version) and the C++
    standard library it compiles against (from its version macros), e.g.
    {"compiler": "GNU 12.2.0", "stdlib": "libstdc++ 12 20220819"}; a part
    the tree does not tell is None."""
    compiler = None
    files = os.path.join(build_dir, "CMakeFiles")
    for sub in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        try:
            with open(os.path.join(files, sub, "CMakeCXXCompiler.cmake")) as f:
                text = f.read()
        except OSError:
            continue
        found = dict(re.findall(
            r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)', text))
        if found.get("ID"):
            compiler = f"{found['ID']} {found.get('VERSION', '')}".strip()
    stdlib = None
    cxx = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    if cxx:
        try:
            proc = subprocess.run([cxx, "-E", "-P", "-x", "c++", "-"],
                                  input=STDLIB_PROBE, capture_output=True)
            lines = proc.stdout.decode(errors="replace").split("\n")
            stdlib = next((l.strip() for l in reversed(lines)
                           if l.startswith("lib")), None)
        except OSError:
            pass
    return {"compiler": compiler, "stdlib": stdlib}


def sha256(data):
    return hashlib.sha256(data).hexdigest() if data is not None else None


# --- suite -------------------------------------------------------------------

Run = namedtuple("Run", "wall_s exit_code stdout report maxrss_kb minflt")


def run_bench(exe, jobs, args, cwd):
    """One run of a bench binary in `cwd`, its RunReport array (if it
    writes one) read back as bytes. The process is reaped with wait4, so
    its own peak RSS and minor faults come with it."""
    report = os.path.join(cwd, "report.json")
    if os.path.exists(report):
        os.unlink(report)
    env = dict(os.environ, OMR_MB=str(OMR_MB), OMR_JOBS=str(jobs),
               OMR_REPORT_JSON=report)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([exe, *args], cwd=cwd, env=env, stdout=out,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
    data = None
    if os.path.exists(report):
        with open(report, "rb") as f:
            data = f.read()
    return Run(wall_s, proc.returncode, stdout, data, usage.ru_maxrss,
               usage.ru_minflt)


def run_row(name, run):
    """The suite row fields every run records, in record and check mode
    alike (Linux reports ru_maxrss in KiB)."""
    return {"bench": name, "exit_code": run.exit_code,
            "stdout_sha256": sha256(run.stdout),
            "report_sha256": sha256(run.report),
            "maxrss_kb": run.maxrss_kb, "minflt": run.minflt}


def outputs_identical(a, b):
    """The runner's contract: exit code, stdout and report are the same
    bytes at any job count."""
    return (a.exit_code, a.stdout, a.report) == (b.exit_code, b.stdout,
                                                  b.report)


CELL_RE = re.compile(
    r"^CELL n=(\d+) sparsity=([\d.]+) codec=(\S+) total_us=([\d.]+) "
    r"wire_bytes=([\d.]+) verified=(\d)$", re.M)


def codec_cells(stdout):
    """bench_fig_codec's CELL table, one entry per (size, sparsity), and
    the problems its acceptance gate finds: every run verified, 'none' the
    best fixed codec at the smallest size and not at the largest, and
    'auto' within 5% of the best fixed codec everywhere."""
    cells = {}
    for m in CELL_RE.finditer(stdout):
        n, sparsity = int(m.group(1)), float(m.group(2))
        cell = cells.setdefault((n, sparsity), {
            "elements": n, "tensor_bytes": n * 4, "sparsity": sparsity,
            "codecs": {}})
        cell["codecs"][m.group(3)] = {
            "total_us": float(m.group(4)),
            "wire_bytes_per_worker": float(m.group(5)),
            "verified": m.group(6) == "1",
        }
    if not cells:
        return [], ["no CELL lines in bench_fig_codec output"]
    sizes = sorted({n for n, _ in cells})
    results, problems = [], []
    for (n, sparsity), cell in sorted(cells.items()):
        where = f"n={n} sparsity={sparsity}"
        codecs = cell["codecs"]
        fixed = {k: v["total_us"] for k, v in codecs.items() if k != "auto"}
        if "auto" not in codecs or "none" not in fixed:
            problems.append(f"{where}: no 'auto' or 'none' column")
            continue
        best = min(fixed, key=fixed.get)
        auto_over_best = codecs["auto"]["total_us"] / fixed[best]
        cell["best_fixed"] = best
        cell["auto_over_best"] = round(auto_over_best, 4)
        cell["best_speedup_vs_none"] = round(fixed["none"] / fixed[best], 2)
        results.append(cell)
        if not all(v["verified"] for v in codecs.values()):
            problems.append(f"{where}: a run did not verify")
        if n == sizes[0] and best != "none":
            problems.append(f"{where}: '{best}' beats 'none' at the "
                            "smallest size")
        if n == sizes[-1] and best == "none":
            problems.append(f"{where}: no codec beats 'none' at the "
                            "largest size")
        if auto_over_best > 1.05:
            problems.append(f"{where}: auto is {auto_over_best:.3f}x the "
                            "best fixed codec")
    return results, problems


# bench_fig_serving sweeps shards {1,2,4} x cache {0,4096,32768} x
# oversubscription {1,8} x trainer {off,on}.
SERVING_CELLS = 3 * 3 * 2 * 2
SERVING_KEYS = (
    "shards", "cache", "oversubscription", "trainer", "hit_rate", "qps",
    "finish_ns", "trainer_finish_ns", "lookup_p50_ns", "lookup_p99_ns",
    "lookup_p999_ns", "update_p50_ns", "update_p99_ns", "update_p999_ns",
)


def serving_problems(doc):
    """Schema check of bench_fig_serving's omnireduce.bench_serving.v1
    document: cell count, keys, quantile order, hit-rate bounds."""
    problems = []
    if doc.get("schema") != "omnireduce.bench_serving.v1":
        problems.append(f"unexpected schema: {doc.get('schema')!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or len(cells) != SERVING_CELLS:
        problems.append(
            f"expected {SERVING_CELLS} cells, got "
            f"{len(cells) if isinstance(cells, list) else type(cells)}")
        return problems
    for i, cell in enumerate(cells):
        missing = [k for k in SERVING_KEYS if k not in cell]
        if missing:
            problems.append(f"cell {i}: missing keys {missing}")
            continue
        if not 0.0 <= cell["hit_rate"] <= 1.0:
            problems.append(f"cell {i}: hit_rate {cell['hit_rate']} not in "
                            "[0, 1]")
        if cell["qps"] <= 0 or cell["finish_ns"] <= 0:
            problems.append(f"cell {i}: non-positive qps/finish")
        for lane in ("lookup", "update"):
            q = [cell[f"{lane}_{p}_ns"] for p in ("p50", "p99", "p999")]
            if not q[0] <= q[1] <= q[2]:
                problems.append(f"cell {i}: {lane} quantiles not ordered "
                                f"({q[0]} / {q[1]} / {q[2]})")
        if cell["trainer"] and cell["trainer_finish_ns"] <= 0:
            problems.append(f"cell {i}: trainer cell without trainer finish")
        if cell["cache"] == 0 and cell["hit_rate"] != 0.0:
            problems.append(f"cell {i}: hits without a cache")
    return problems


# Benches whose --out document is embedded, with its check.
DOC_BENCHES = {
    "bench_fig_serving": serving_problems,
    "bench_fig_tenancy": lambda doc: [],
}


def bench_names(bench_dir):
    """One per bench_*.cpp in `bench_dir`, except the host-timing harness."""
    return sorted(
        f[:-len(".cpp")] for f in os.listdir(bench_dir)
        if f.startswith("bench_") and f.endswith(".cpp") and
        f != HARNESS + ".cpp")


def sweep_benches(bench_dir):
    """The benches of `bench_dir` whose source runs on the runner."""
    def on_runner(name):
        with open(os.path.join(bench_dir, name + ".cpp")) as f:
            source = f.read()
        return any(marker in source for marker in RUNNER_MARKERS)
    return {name for name in bench_names(bench_dir) if on_runner(name)}


def suite_benches(only):
    names = bench_names(os.path.join(REPO, "bench"))
    unknown = sorted(set(only or ()) - set(names))
    if unknown:
        sys.exit(f"not a suite bench: {', '.join(unknown)}")
    return only or names


def record_suite(build_dir, only, smoke, host_cpus):
    results, problems = [], []
    sweeps = sweep_benches(os.path.join(REPO, "bench"))
    for name in suite_benches(only):
        exe = os.path.join(build_dir, "bench", name)
        if not os.path.exists(exe):
            sys.exit(f"missing bench binary: {exe} (build it first)")
        args = ["--out", "doc.json"] if name in DOC_BENCHES else []
        if smoke and name in DOC_BENCHES:
            args.append("--smoke")
        with tempfile.TemporaryDirectory() as cwd:
            run = run_bench(exe, 1, args, cwd)
            row = dict(run_row(name, run), wall_s=round(run.wall_s, 3))
            found = [f"exit code {run.exit_code}"] if run.exit_code else []
            line = f"{name:34s} {run.wall_s:8.2f} s"
            if name in sweeps:
                par = run_bench(exe, host_cpus, args, cwd)
                row["parallel_wall_s"] = round(par.wall_s, 3)
                same = outputs_identical(run, par)
                row["outputs_identical"] = same
                if not same:
                    found.append(f"output at OMR_JOBS={host_cpus} differs "
                                 "from OMR_JOBS=1")
                line += (f"  x{host_cpus} {par.wall_s:7.2f} s  "
                         f"{'identical' if same else 'OUTPUT MISMATCH'}")
            if name == "bench_fig_codec":
                row["codec_cells"], gate = codec_cells(
                    run.stdout.decode(errors="replace"))
                row["acceptance_pass"] = not gate
                found += gate
            if name in DOC_BENCHES:
                doc_path = os.path.join(cwd, "doc.json")
                if os.path.exists(doc_path):
                    with open(doc_path) as f:
                        row["doc"] = json.load(f)
                    found += DOC_BENCHES[name](row["doc"])
                else:
                    found.append("wrote no --out document")
        row["problems"] = found
        problems += [f"{name}: {p}" for p in found]
        print(line, flush=True)
        results.append(row)
    totals = {
        "omr_mb": OMR_MB,
        "parallel_jobs": host_cpus,
        "total_serial_s": round(sum(r["wall_s"] for r in results), 3),
    }
    print(f"{'total (serial)':34s} {totals['total_serial_s']:8.2f} s")
    return totals, results, problems


# The fields of a suite row that must not move between builds.
DIGEST_KEYS = ("exit_code", "stdout_sha256", "report_sha256")


def digest_problems(expected, row):
    """What moved in `row` against the record's row of the same bench."""
    if row.get("missing"):
        return ["binary not built"]
    if expected is None:
        return ["no row in the record"]
    return [f"{k} moved" for k in DIGEST_KEYS if row[k] != expected.get(k)]


def check_suite(build_dir, record, names, jobs, tools):
    """Run every bench in `names` once, `jobs` at a time, and compare its
    digests with `record`. Returns the rows and one problem per bench that
    moved, is missing, or is in only one of `names` and the record. When
    the record is stamped with a toolchain other than `tools`, the
    digests cannot be compared: nothing runs and the one problem says so."""
    stamp = record.get("toolchain")
    if stamp is not None and stamp != tools:
        return [], [f"toolchain differs: the record was made with {stamp}, "
                    f"this build uses {tools}; digests not compared"]
    problems = []
    if record.get("omr_mb") != OMR_MB:
        problems.append(f"record made at OMR_MB={record.get('omr_mb')}, "
                        f"checked at {OMR_MB}")
    want = {r["bench"]: r for r in record.get("results", [])}
    problems += [f"{n}: in the record but not a suite bench"
                 for n in sorted(set(want) - set(names))]

    def one(name):
        exe = os.path.join(build_dir, "bench", name)
        if not os.path.exists(exe):
            return {"bench": name, "missing": True}
        args = ["--out", "doc.json"] if name in DOC_BENCHES else []
        if record.get("smoke") and name in DOC_BENCHES:
            args.append("--smoke")
        with tempfile.TemporaryDirectory() as cwd:
            return run_row(name, run_bench(exe, 1, args, cwd))

    # Longest first (by the record's wall-clock), so the pool drains evenly.
    order = sorted(names, key=lambda n: -want.get(n, {}).get("wall_s", 0))
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        done = dict(zip(order, pool.map(one, order)))
    rows = []
    for name in names:
        row = done[name]
        row["problems"] = digest_problems(want.get(name), row)
        problems += [f"{name}: {p}" for p in row["problems"]]
        rows.append(row)
    return rows, problems


# --- pairs -------------------------------------------------------------------

def run_harness(exe, label, smoke):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "harness.json")
        cmd = [exe, "--label", label, "--out", out]
        if smoke:
            cmd.append("--smoke")
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       env=dict(os.environ, OMR_JOBS="1"))
        with open(out) as f:
            return json.load(f)


def spread(samples):
    """Median and quartiles (inclusive method) of a row's wall-clock."""
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(base_runs, cur_runs):
    """One row per benchmark of the current harness, over all pairs. A row
    the baseline harness lacks keeps only the current side."""
    rows = []
    for first in cur_runs[0]["results"]:
        name = first["name"]
        cur = [next(r for r in run["results"] if r["name"] == name)
               for run in cur_runs]
        base = [next((r for r in run["results"] if r["name"] == name), None)
                for run in base_runs]
        base = base if all(b is not None for b in base) else []
        cur_ms = [c["wall_ms"] for c in cur]
        row = {"name": name, "kind": first.get("kind"),
               "current_ms": spread(cur_ms), "current_runs_ms": cur_ms}
        if base:
            base_ms = [b["wall_ms"] for b in base]
            b, c = spread(base_ms), row["current_ms"]
            row.update({
                "baseline_ms": b,
                "baseline_runs_ms": base_ms,
                "speedup": round(b["median"] / c["median"], 2)
                if c["median"] > 0 else 0.0,
                "wins": sum(cm < bm for bm, cm in zip(base_ms, cur_ms)),
                "pairs": len(cur_ms),
            })
        row["sim_identical"] = len(
            {tuple(r.get(k) for k in SIM_KEYS) for r in base + cur}) == 1
        rows.append(row)
    return rows


def pair_problems(rows):
    return [f"{r['name']}: simulated outputs diverged" for r in rows
            if not r["sim_identical"]]


def record_pairs(build_dir, baseline_exe, pairs, smoke):
    exe = os.path.join(build_dir, "bench", HARNESS)
    for path in (exe, baseline_exe):
        if not os.path.exists(path):
            sys.exit(f"missing harness binary: {path} (build it first)")
    base_runs, cur_runs = [], []
    for p in range(pairs):
        order = [(baseline_exe, "baseline", base_runs),
                 (exe, "current", cur_runs)]
        if p % 2 == 1:
            order.reverse()
        for path, label, runs in order:
            runs.append(run_harness(path, label, smoke))
        print(f"pair {p + 1}/{pairs} done", file=sys.stderr)
    rows = compare(base_runs, cur_runs)
    for r in rows:
        c = r["current_ms"]
        line = f"  {r['name']:28s} "
        if "baseline_ms" in r:
            b = r["baseline_ms"]
            line += (f"{b['median']:9.2f} [{b['q1']:.2f}, {b['q3']:.2f}] -> "
                     f"{c['median']:9.2f} [{c['q1']:.2f}, {c['q3']:.2f}] ms  "
                     f"{r['speedup']:.2f}x  won {r['wins']}/{r['pairs']}")
        else:
            line += (f"{'(new row)':>27s} -> {c['median']:9.2f} "
                     f"[{c['q1']:.2f}, {c['q3']:.2f}] ms")
        print(line)
    totals = {"pairs": pairs,
              "order": "alternating: the first pair runs the baseline first"}
    return totals, rows, pair_problems(rows)


# --- self-test ---------------------------------------------------------------

def _raise_oserror(pid):
    raise OSError("no affinity support")


def _harness_run(rows):
    return {"results": [
        {"name": n, "kind": "e2e", "wall_ms": ms, "work_units": 8.0,
         "sim_completion_ns": sim} for n, ms, sim in rows]}


def _serving_doc():
    cell = {k: 1 for k in SERVING_KEYS}
    cell.update(trainer=False, cache=4096, hit_rate=0.5)
    return {"schema": "omnireduce.bench_serving.v1",
            "cells": [dict(cell) for _ in range(SERVING_CELLS)]}


def self_test():
    """Checks of the recorder's logic on canned inputs."""
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

    base = [_harness_run([("a", ms, 5)]) for ms in (10.0, 12.0, 14.0, 16.0)]
    cur = [_harness_run([("a", ms, 5), ("new", 1.0, 7)])
           for ms in (11.0, 9.0, 14.0, 8.0)]
    rows = compare(base, cur)
    checks += [
        ("pairs: wins count the pairs the current side is faster; a tie "
         "counts for neither", rows[0]["wins"] == 2 and rows[0]["pairs"] == 4),
        ("pairs: inclusive quartiles of each side",
         rows[0]["baseline_ms"] == {"median": 13.0, "q1": 11.5, "q3": 14.5}
         and rows[0]["current_ms"] == {"median": 10.0, "q1": 8.75,
                                       "q3": 11.75}),
        ("pairs: a row the baseline lacks keeps only the current side",
         "baseline_ms" not in rows[1] and rows[1]["sim_identical"]),
        ("pairs: identical simulated outputs pass",
         not pair_problems(rows)),
    ]
    cur[2]["results"][0]["sim_completion_ns"] = 6
    checks.append(("pairs: a diverged simulated output fails the record",
                   not compare(base, cur)[0]["sim_identical"] and
                   pair_problems(compare(base, cur)) != []))

    good = _serving_doc()
    bad = _serving_doc()
    bad["cells"][3]["lookup_p99_ns"] = 0
    checks += [
        ("serving: a well-formed document passes",
         serving_problems(good) == []),
        ("serving: misordered quantiles fail",
         any("quantiles not ordered" in p for p in serving_problems(bad))),
    ]

    def cell_lines(n, totals, verified=1):
        return "".join(
            f"CELL n={n} sparsity=0.00 codec={c} total_us={t:.3f} "
            f"wire_bytes=100 verified={verified}\n"
            for c, t in totals.items())
    passing = (cell_lines(1024, {"none": 10, "q8": 12, "auto": 10.2}) +
               cell_lines(65536, {"none": 50, "q8": 40, "auto": 41}))
    failing = (cell_lines(1024, {"none": 10, "q8": 9, "auto": 12}) +
               cell_lines(65536, {"none": 40, "q8": 50, "auto": 40},
                          verified=0))
    cells, gate = codec_cells(passing)
    checks += [
        ("codec: a passing CELL set passes the gate",
         gate == [] and [c["best_fixed"] for c in cells] == ["none", "q8"]),
        ("codec: a failing CELL set fails every rule",
         len(codec_cells(failing)[1]) == 4),
        ("codec: no CELL lines fail the gate",
         codec_cells("ACCEPTANCE: pass\n")[1] != []),
    ]

    with tempfile.TemporaryDirectory() as bench_dir:
        for name, source in (
                ("bench_grid", "bench::Sweep sweep(&sink);\n"),
                ("bench_columns", "runner::parallel_for_each<Column>(\n"),
                ("bench_plain", "int main() { return 0; }\n"),
                (HARNESS, "omr::runner::parallel_for_each<Result>(\n"),
                ("helper", "bench::Sweep sweep;\n")):
            with open(os.path.join(bench_dir, name + ".cpp"), "w") as f:
                f.write(source)
        derived = sweep_benches(bench_dir)
    real = sweep_benches(os.path.join(REPO, "bench"))
    checks += [
        ("sweeps: a bench using bench::Sweep or runner::parallel_for_each "
         "is derived; a plain bench, the harness and a non-bench file are "
         "not", derived == {"bench_grid", "bench_columns"}),
        ("sweeps: the repo's grid and column benches are derived",
         {"bench_fig04_allreduce_time", "bench_fig_codec",
          "bench_fig_selector", "bench_table1_workloads"} <= real and
         HARNESS not in real),
    ]

    serial = Run(2.0, 0, b"table\n", b"[]", 900, 80)
    checks += [
        ("parallel: equal bytes at any wall-clock and footprint are "
         "identical",
         outputs_identical(serial, Run(1.0, 0, b"table\n", b"[]", 950, 90))),
        ("parallel: a differing stdout is flagged",
         not outputs_identical(serial,
                               Run(1.0, 0, b"tablE\n", b"[]", 900, 80))),
        ("parallel: a differing report is flagged",
         not outputs_identical(serial,
                               Run(1.0, 0, b"table\n", b"[1]", 900, 80))),
    ]

    with tempfile.TemporaryDirectory() as build:
        os.mkdir(os.path.join(build, "bench"))
        exe = os.path.join(build, "bench", "bench_a")
        with open(exe, "w") as f:
            f.write("#!/bin/sh\necho table\n")
        os.chmod(exe, 0o755)

        def record(stdout, *benches):
            rows = [{"bench": b, "exit_code": 0, "stdout_sha256":
                     sha256(stdout), "report_sha256": None} for b in benches]
            return {"omr_mb": OMR_MB, "smoke": False, "results": rows}

        names = ["bench_a"]
        tools = {"compiler": "GNU 12.2.0", "stdlib": "libstdc++ 12 20220819"}
        rows, same = check_suite(build, record(b"table\n", "bench_a"),
                                 names, 2, tools)
        _, moved = check_suite(build, record(b"tablE\n", "bench_a"), names,
                               2, tools)
        _, missing = check_suite(
            build, record(b"table\n", "bench_a", "bench_b"),
            ["bench_a", "bench_b"], 2, tools)
        _, stale = check_suite(build, record(b"table\n", "bench_a",
                                             "bench_gone"), names, 2, tools)
        other_footprint = record(b"table\n", "bench_a")
        other_footprint["results"][0].update(maxrss_kb=1, minflt=1)
        _, footprint_moved = check_suite(build, other_footprint, names, 2,
                                         tools)
        stamped = dict(record(b"tablE\n", "bench_a"), toolchain=tools)
        _, same_tools = check_suite(build, stamped, names, 2, tools)
        other = dict(tools, stdlib="libc++ 170000")
        other_rows, other_tools = check_suite(build, stamped, names, 2, other)
    footprint = [rows[0].get(k) for k in ("maxrss_kb", "minflt")]
    checks += [
        ("expect: equal digests pass",
         same == [] and rows[0]["problems"] == []),
        ("footprint: maxrss_kb and minflt are recorded as positive integers",
         all(type(v) is int and v > 0 for v in footprint)),
        ("footprint: --expect does not compare maxrss_kb or minflt",
         footprint_moved == []),
        ("expect: a moved stdout digest names its binary",
         moved == ["bench_a: stdout_sha256 moved"]),
        ("expect: a missing binary is named, the rest still checked",
         missing == ["bench_b: binary not built"]),
        ("expect: a record row with no suite bench is named",
         stale == ["bench_gone: in the record but not a suite bench"]),
        ("expect: a record stamped with this toolchain is checked",
         same_tools == ["bench_a: stdout_sha256 moved"]),
        ("expect: another toolchain is named, not a moved digest",
         other_rows == [] and len(other_tools) == 1 and
         other_tools[0].startswith("toolchain differs")),
    ]

    with tempfile.TemporaryDirectory() as build:
        gen = os.path.join(build, "CMakeFiles", "3.25.1")
        os.makedirs(gen)
        with open(os.path.join(gen, "CMakeCXXCompiler.cmake"), "w") as f:
            f.write('set(CMAKE_CXX_COMPILER_ID "GNU")\n'
                    'set(CMAKE_CXX_COMPILER_VERSION "12.2.0")\n')
        checks.append(("toolchain: the compiler is read from the build tree",
                       toolchain(build) == {"compiler": "GNU 12.2.0",
                                            "stdlib": None}))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if failed:
        print(f"{len(failed)} self-test check(s) failed")
        return 1
    print("self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("mode", nargs="?", choices=("suite", "pairs"))
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", help="record path (default BENCH_e2e.json "
                                  "for suite, BENCH_hotpaths.json for pairs)")
    ap.add_argument("--expect", metavar="RECORD",
                    help="suite: check the digests against RECORD instead "
                         "of recording")
    ap.add_argument("--only", action="append",
                    help="suite: run only this bench (repeatable)")
    ap.add_argument("--smoke", action="store_true",
                    help="CI-scale serving/tenancy documents and harness")
    ap.add_argument("--baseline-exe",
                    help="pairs: the harness built at the baseline commit")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs: alternating pairs to run (default 10)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the recorder's logic on canned inputs")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.mode is None:
        ap.error("a mode (suite or pairs) is required")
    if args.mode == "pairs" and not args.baseline_exe:
        ap.error("pairs needs --baseline-exe")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.expect and args.mode != "suite":
        ap.error("--expect is a suite option")

    build_dir = os.path.join(REPO, args.build_dir)
    host_cpus = detect_host_cpus()
    doc = {
        "schema": SCHEMA,
        "mode": args.mode,
        "commit": commit(),
        "host_cpus": host_cpus,
        "platform": platform.platform(),
        "build_type": build_type(build_dir),
        "toolchain": toolchain(build_dir),
        "smoke": args.smoke,
    }
    if args.expect:
        with open(os.path.join(REPO, args.expect)) as f:
            record = json.load(f)
        if args.only:
            record["results"] = [r for r in record.get("results", [])
                                 if r["bench"] in args.only]
        results, problems = check_suite(build_dir, record,
                                        suite_benches(args.only), host_cpus,
                                        doc["toolchain"])
        for row in results:
            print(f"{row['bench']:34s} "
                  f"{'; '.join(row['problems']) or 'ok'}")
        totals = {"omr_mb": OMR_MB, "expect": args.expect}
    elif args.mode == "suite":
        totals, results, problems = record_suite(
            build_dir, args.only, args.smoke, host_cpus)
    else:
        totals, results, problems = record_pairs(
            build_dir, args.baseline_exe, args.pairs, args.smoke)
    doc.update(totals, results=results)

    if args.out or not args.expect:
        out = os.path.join(REPO, args.out or (
            "BENCH_e2e.json" if args.mode == "suite" else
            "BENCH_hotpaths.json"))
        with open(out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {out}")
    if problems:
        print("FAIL:\n  " + "\n  ".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
