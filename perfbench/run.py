#!/usr/bin/env python3
"""Build the repository benchmark in the release profile and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bst-read --seed 1 --seconds 10 --trace 0

Workloads: bst-read, bst-churn, kv-text, or all. Every argument is passed
to perfbench/main.exe; its last line of output is the result (see
perfbench/README.md). The exit code is the build's when the build fails,
otherwise the benchmark's (1 when an output check fails).
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def git_sha():
    """HEAD of the checkout when it is itself a git work tree, else unknown."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(os.getcwd()):
            return "unknown"
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a repository checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE, *sys.argv[1:], "--git-sha", git_sha()]).returncode


if __name__ == "__main__":
    sys.exit(main())
