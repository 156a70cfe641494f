#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Builds the `ucfg` CLI (the daemon) and the benchmark program with dune,
then runs the workload in a fresh scratch directory under
`.perfbench_run/`, which is removed afterwards together with every process
the run started.  The last line of standard output is the JSON result.
Exits nonzero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve-warm", "serve-mixed", "research")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
TARGETS = ("./perfbench/perfbench.exe", "./bin/ucfg_cli.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("no dune-project here: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", *TARGETS]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")


def stop_group(pgid):
    """Kill every process of the run's group and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build(root)
    build_dir = os.path.join(root, "_build", "default")
    workdir = os.path.join(".perfbench_run", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "bin", "ucfg_cli.exe"),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 124
    finally:
        stop_group(proc.pid)
        if proc.poll() is None:
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_run")
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
