#!/usr/bin/env python3
"""Build and run the name service's benchmark.

    python3 sdnsbench/run.py --workload read_mix --seed 1 --seconds 30 --trace 0
    python3 sdnsbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark package (sdnsbench/CMakeLists.txt: the service's libraries, the
sdnsd daemon, and the driver) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only rebuild what changed. Build
output goes to stderr, so the last stdout line is the sdnsbench binary's JSON
result.
Run files (keys, data, logs, the trace) go under .bench_out/.
"""
import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Have the kernel kill the benchmark (and so, in turn, the servers it
    started) if this script is killed first."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def build(build_dir, targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("sdnsbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if args.self_test:
        if not build(build_dir, ["sdnsbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(build_dir, "sdnsbench_selftest")]).returncode
    if not build(build_dir, ["sdnsbench", "sdnsd"]):
        return 1

    work = os.path.join(ROOT, ".bench_out", "%s-trace%d" % (args.workload, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(build_dir, "sdnsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "sdns_apps"), "--work-dir", work]
    code = subprocess.run(cmd, preexec_fn=die_with_parent).returncode
    # Keep the logs and the trace; drop keys, zone copies and WAL data.
    if os.path.isdir(work):
        for name in os.listdir(work):
            path = os.path.join(work, name)
            if os.path.isdir(path):
                for sub in os.listdir(path):
                    if not sub.endswith(".log"):
                        p = os.path.join(path, sub)
                        shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)
    return code


if __name__ == "__main__":
    sys.exit(main())
