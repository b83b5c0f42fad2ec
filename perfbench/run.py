#!/usr/bin/env python3
"""Builds and runs one workload of hierarq's served-system benchmark.

    python3 perfbench/run.py --workload small_requests --seed 1 \
        --seconds 45 --trace 0

Run from the repository root. Each call configures and builds
hierarq_server and the perfbench load generator with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; only the
first call compiles everything. Build output goes to stderr. The generator's
output is passed through: `info`/`metric` lines, then one JSON result
line. `--self-test` builds and runs the benchmark's own tests instead.
Workloads: small_requests, large_reads.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring an existing tree is quick and repairs a failed first try.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target"] + targets]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    return out


def run_group(cmd, timeout_s):
    """Runs cmd in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        code = 124
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # Nothing may outlive the run.
    except ProcessLookupError:
        pass
    return code, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb every reference answer; the run "
                             "must then fail (mutation check)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_test"])
        if out is None:
            return 1
        return subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"]).returncode
    if not args.workload:
        parser.error("--workload is required")

    out = build(["perfbench", "hierarq_server"])
    if out is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--server-bin", os.path.join(out, "hierarq", "hierarq_server"),
           "--work-dir", work]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        code, stdout = run_group(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code == 124:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
