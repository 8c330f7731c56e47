#!/usr/bin/env python3
"""Build and run the layered benchmark from the root of a checkout.

    python3 perfbench/run.py --workload toolchain --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe from source with dune (into .bench_build,
dune's shared cache disabled so nothing is written outside the
checkout), then runs it with the given arguments plus a host record:
the git commit when the checkout is a repository, and a SHA-256 of the
library and benchmark sources either way.  The benchmark's own output,
whose last line is the JSON result, passes through unchanged; build
output goes to standard error.  Exits non-zero, printing no result,
when the build fails.
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        print(f"cannot run dune: {e}", file=sys.stderr)
        return 127


def commit():
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(".")))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def sources_digest():
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def main():
    status = build()
    if status != 0:
        print(f"benchmark build failed (exit {status})", file=sys.stderr)
        return status or 1
    args = [EXE] + sys.argv[1:] + ["--commit", commit(),
                                   "--sources", sources_digest()]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
