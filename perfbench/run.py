#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of an lbc checkout:

    python3 perfbench/run.py --workload oo7-t2b-sim --seed 1994 --seconds 50 --trace 0

Builds perfbench/main.exe with dune into .bench_build/ (or
$CARGO_TARGET_DIR), then runs it in place of this process, with its
working and temp directories under that build directory, so the run
writes nothing else in the checkout.  The last line of standard output
is the result object.
"""

import os
import shutil
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("perfbench/main.ml")):
        print("perfbench: run from the root of an lbc checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work = os.path.join(build, "perfbench", "work")
    tmp = os.path.join(build, "perfbench", "tmp")
    os.makedirs(work, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    dune_build = os.path.join(build, "dune")
    built = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", dune_build,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    # The benchmark replaces this process, so whoever stops the run stops
    # the benchmark itself and no child is left behind.
    exe = os.path.join(dune_build, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(work)
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
