#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe and bin/disesim.exe (release profile,
build directory .bench_build), runs one workload and relays its report;
the last line of standard output is the JSON result. See README.md in
this directory for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD = ".bench_build"
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
DISESIM = os.path.join(BUILD, "default", "bin", "disesim.exe")
WORKLOADS = ["compress", "simulate", "serve-mixed", "synth-eval"]
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a repository checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD,
           "--profile", "release", "--cache=disabled",
           "./perfbench/perfbench.exe", "./bin/disesim.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-long configuration (the self-test's)")
    ap.add_argument("--expected", default=os.path.join("perfbench", "expected"),
                    help="directory of expected-output records")
    ap.add_argument("--update-expected", action="store_true",
                    help="rewrite the workload's expected-output records "
                         "from this build instead of measuring")
    args = ap.parse_args()
    build()

    workdir = os.path.join(BUILD, "perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", args.expected, "--disesim", DISESIM,
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    if args.update_expected:
        cmd.append("--update-expected")
    # Its own process group, so every tier process it starts can be
    # reaped even if the benchmark itself dies.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=None if args.update_expected else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        sys.exit(f"perfbench: {args.workload} overran {RUN_TIMEOUT_S} s")
    finally:
        kill_group(proc.pid)
    # Sockets, caches and logs; traces are written beside this directory.
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
