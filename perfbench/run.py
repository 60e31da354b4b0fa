#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the perfbench harness (perfbench/CMakeLists.txt, which compiles the
ACE libraries from ../src) into .bench_build/ and runs one workload:

    python3 perfbench/run.py --workload <cmd_rpc|store_rw|media_fanout> \
        --seed <n> --seconds <s> --trace <0|1>

Each run uses fresh harness processes, so rss_mb and net.threads measure
that workload alone. With --trace 0 the last stdout line is a JSON object
with the five end-to-end metrics; setup_s is the median over the measured
process's own set-up and the SETUPS set-up-only processes that follow it.
They run after the measured process because its warm-up waits out a
stretch of host steal, so they start on a quiet host too. With
--trace 1 it carries the 43 per-layer metrics instead, and the run's spans
are written to .bench_build/traces/. Exits non-zero without printing a
result when the sources are missing, the build fails, or a run fails.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("cmd_rpc", "store_rw", "media_fanout")
SETUPS = 4
BUILD_TIMEOUT_S = 700  # with RUN_BUDGET_S, a first run ends within 900 s
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in a process group of its own and returns its
    CompletedProcess, or None when it times out. On timeout the whole group
    is killed, so a build's compilers stop along with cmake."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=max(1, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "daemon", "daemon.hpp")):
        fail("ACE sources not found under src/; run from a repo checkout")
    # The compilers' temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = run_group(cmd, deadline - time.monotonic(), env=env,
                             stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail(f"build failed: {err}")
        if done is None:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {done.returncode}")


def harness(args, deadline):
    """Runs the harness once; returns (stdout lines, parsed last line)."""
    done = run_group([BINARY] + args, deadline - time.monotonic(),
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done is None:
        fail(f"harness timed out: {' '.join(args)}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"harness exited {done.returncode}: {' '.join(args)}")
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"harness printed no result: {' '.join(args)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not 1 <= opts.seconds <= 60:
        fail("--seconds must be within 1..60")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds), "--trace", str(opts.trace)]

    if opts.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        common += ["--trace-dir", TRACE_DIR]
    lines, result = harness(common, deadline)
    if not opts.trace:
        # Each set-up runs in its own process, like the measured one.
        setups = [result["metrics"]["setup_s"]["value"]]
        setups += [harness(common + ["--setup-only"], deadline)[1]["setup_s"]
                   for _ in range(SETUPS)]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, "setup_s runs=" + " ".join(f"{s:.4f}" for s in setups))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
