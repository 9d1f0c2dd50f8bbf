#!/usr/bin/env python3
"""Build the benchmark from source and run one invocation of it.

Run from the root of the source tree:

    python3 perfbench/run.py --workload paper-churn --seed 1 --seconds 20 --trace 0

The arguments go to the benchmark unchanged; its last line of output is
the JSON verdict. The Go build cache, the binary and the run's scratch
files all live under the build directory ($CARGO_TARGET_DIR, default
.bench_build), so nothing is read or written outside the tree apart
from the Go toolchain itself. Exits non-zero, printing no verdict, when
the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT = 900  # s; the first build compiles the standard library
RUN_TIMEOUT = 175  # s; a run must end within three minutes


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build, "bin", "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    args = [binary, "--work", os.path.join(build, "perfbench-work")] + sys.argv[1:]
    with subprocess.Popen(args, env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("run.py: benchmark timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
