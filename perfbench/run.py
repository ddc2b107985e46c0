#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes through dune into _build/ (release profile, dune cache
off, so nothing is written outside the checkout).  Build output goes to
stderr; the benchmark's own stdout is passed through, so its last line
is the JSON result.  The exit code is the benchmark's, or the build's
when the build fails (then nothing is printed on stdout).
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--cache", "disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    child = subprocess.Popen([EXE] + sys.argv[1:])

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
