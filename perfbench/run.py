#!/usr/bin/env python3
"""Build and run the rdtgc benchmark.

    python3 perfbench/run.py --workload <sim-mem|sim-durable|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository.  The first run configures and builds
perfbench/ (Release) under .bench_build/; later runs only re-check the
build.  The build log goes to stderr, so the last stdout line is the
benchmark's JSON result.  Media, sockets and event logs live under
.bench_build/work/ and are removed after the run; traced runs leave their
spans in .bench_build/traces/<workload>.json (Chrome trace-event format).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; returns False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                  "--target", "perfbench", "rdtgc_proc"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {' '.join(cmd)}: {exc}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed ({done.returncode})",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sim-mem", "sim-durable", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Everything is relative to the repository root (the parent of this
    # file's directory), which also keeps the fleet's socket path short.
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not build():
        return 2

    work_dir = os.path.join(".bench_build", "work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--proc-bin", os.path.join(BUILD_DIR, "tools", "rdtgc_proc"),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}.json")]
    sys.stdout.flush()
    try:
        # Own process group: a timeout also takes down the fleet's workers.
        proc = subprocess.Popen(cmd, start_new_session=True)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("run.py: benchmark timed out", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
