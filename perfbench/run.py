#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds perfbench/ (the simulator libraries
plus the omr_perfbench binary, Release) under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls only rebuild what changed. The
binary's stdout is passed through: its last line is the result JSON. Traced
runs write a Chrome trace and a per-layer self-time table to
<build dir>/perfbench/out/. Exits non-zero without a result when the
sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build omr_perfbench; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found under " + ROOT)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "omr_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "omr_perfbench")


def main(argv):
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench build failed: %s" % e, file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary] + argv + ["--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
