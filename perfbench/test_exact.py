#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_exact.py [workload ...]

For each workload (default: all of them) runs the traced benchmark
twice with the same seed and checks that

  - every counter metrics.json lists as exact is bit-for-bit equal
    between the two runs;
  - the layer accounting closes: no closure part (a layer self time or
    unattributed_s) is negative, as it would be if a span were charged
    twice, and unattributed_s stays below MAX_UNATTRIBUTED of
    trace.wall_s, as it would not if a layer's spans went missing or to
    the wrong domain;
  - both runs report correct outputs and no failed operation.

Run it from the root of the repository; exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["toolchain", "periodic", "sporadic", "service"]
# the share of the traced wall time no span may cover
MAX_UNATTRIBUTED = 0.05


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload}: benchmark exited {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(HERE, "metrics.json")) as f:
        spec = json.load(f)
    seed = spec["seeds"]["default"]
    failures = []
    for w in sys.argv[1:] or WORKLOADS:
        a, b = traced(w, seed), traced(w, seed)
        for r in (a, b):
            if not r["correct"] or r["failed"] != 0:
                failures.append(f"{w}: correct={r['correct']} failed={r['failed']}")
        for name in spec["exact"]:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                failures.append(f"{w}: exact {name} differs: {va} vs {vb}")
        for r in (a, b):
            m = r["metrics"]
            wall = m["trace.wall_s"]["value"]
            for n in spec["closure"]:
                if m[n]["value"] < 0:
                    failures.append(f"{w}: {n} is negative: {m[n]['value']}")
            unattributed = m["unattributed_s"]["value"]
            if unattributed > MAX_UNATTRIBUTED * wall:
                failures.append(f"{w}: unattributed_s {unattributed} is over "
                                f"{MAX_UNATTRIBUTED:.0%} of trace.wall_s {wall}")
        print(f"{w}: {len(spec['exact'])} exact counters compared", flush=True)
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
