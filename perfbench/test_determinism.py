#!/usr/bin/env python3
"""Determinism guard for the repository benchmark.

For every workload, at smoke size:
  * two traced runs on one seed report identical simulated outputs and
    layer counts (the benchmark's `deterministic:` line, plus sim.events,
    net.messages, core.retransmissions and serve.hit_rate);
  * an untraced run on that seed reports the same simulated outputs, so
    tracing never perturbs the simulation;
  * a second seed changes the generated inputs.

Run from the repository root:  python3 perfbench/test_determinism.py
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["sweep_zoo", "omni_twotier", "serve_cotenant"]
NAMED_COUNTS = ["sim.events", "net.messages", "core.retransmissions",
                "serve.hit_rate"]


def smoke(binary, workload, seed, trace, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke",
           "--out-dir", out_dir]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    r.returncode, r.stderr))
    lines = r.stdout.strip().splitlines()
    det = [l for l in lines if l.startswith("deterministic: ")]
    result = json.loads(lines[-1])
    if len(det) != 1 or not result["correct"]:
        raise AssertionError("unexpected output of %s:\n%s" %
                             (" ".join(cmd), r.stdout))
    return json.loads(det[0][len("deterministic: "):]), result["metrics"]


def main():
    binary = run.build()
    out_dir = os.path.join(run.build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    failures = []
    for w in WORKLOADS:
        before = len(failures)
        det_a, layers_a = smoke(binary, w, 1, 1, out_dir)
        det_b, layers_b = smoke(binary, w, 1, 1, out_dir)
        det_plain, _ = smoke(binary, w, 1, 0, out_dir)
        det_other, _ = smoke(binary, w, 2, 1, out_dir)
        if det_a != det_b:
            failures.append("%s: simulated outputs differ on rerun: %s vs %s"
                            % (w, det_a, det_b))
        for name in NAMED_COUNTS:
            if layers_a[name] != layers_b[name]:
                failures.append("%s: %s differs on rerun" % (w, name))
        if det_a != det_plain:
            failures.append("%s: tracing changed simulated outputs" % w)
        if det_a["input_fnv"] == det_other["input_fnv"]:
            failures.append("%s: seed 2 generated the same inputs as seed 1"
                            % w)
        status = "ok" if len(failures) == before else "FAIL"
        print("%-15s %s" % (w, status), flush=True)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
