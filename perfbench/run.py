#!/usr/bin/env python3
"""Build and run the host-cost benchmark from the repository root.

    python3 perfbench/run.py --workload fish|gcc|c10k|hackbench \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it with the same arguments. Its stdout, whose last line is the JSON
result, is passed through unchanged. Exits 2 without a result when the
tree cannot be built or the run does not finish in time.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib/workloads")):
        print("perfbench: run from the repository root "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
