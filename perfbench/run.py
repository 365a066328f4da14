#!/usr/bin/env python3
"""Build the benchmark program from source, then run it in place of this script.

Run from the repository root:

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 30 --trace 0

Build output goes to standard error, so the program's result object stays
the last line of standard output.  A failed build exits non-zero without
printing a result.
"""
import os
import subprocess
import sys


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"], stdout=sys.stderr
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
