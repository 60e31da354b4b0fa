#!/usr/bin/env python3
"""Self-test of the repo benchmark.

Runs every workload for a few seconds, untraced and traced, through
perfbench/run.py, and checks:

  * the result line has exactly the keys correct/attempted/failed/metrics,
    every output check passed and no op failed;
  * every metric BENCHMARK.json names for that mode is present, finite and
    in its unit, and the end-to-end ones are above 0;
  * the traced counts match the workload's shape (two frames per cmd_rpc
    round trip, 16 sinks per media frame and no media copies, the store's
    W=2 peer acks and R=2 digest reads);
  * run.py exits non-zero without printing a result in a directory that
    holds only BENCHMARK.json and perfbench/.

    python3 perfbench/selftest.py

Exits 0 when every check passes and 1 otherwise, naming each failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
RUN_TIMEOUT_S = 900  # the first run builds

# (workload, metric) -> (low, high), checked on the traced run.
SHAPE = {
    ("cmd_rpc", "net.frames_per_op"): (1.9, 2.1),
    ("media_fanout", "media.fanout_per_frame"): (16, 16),
    ("media_fanout", "media.bytes_copied"): (0, 0),
    ("media_fanout", "media.frames_dropped"): (0, 0),
    ("store_rw", "store.acks_per_put"): (1.9, 2.1),
    ("store_rw", "store.digest_reads_per_get"): (0.9, 1.1),
}


def run(cwd, workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def check_result(workload, trace, spec, done):
    errors = []
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exited {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last line is not a JSON result"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys are {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: output checks failed")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: attempted={result.get('attempted')} "
                      f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} = {value!r} is not finite")
        elif not trace and value <= 0:
            errors.append(f"{where}: {m['name']} = {value} is not above 0")
        if got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')!r}")
        bounds = SHAPE.get((workload, m["name"])) if trace else None
        if bounds and isinstance(value, (int, float)) and \
                not bounds[0] <= value <= bounds[1]:
            errors.append(f"{where}: {m['name']} = {value} outside {bounds}")
    if trace and not any("trace_overhead" in line for line in lines):
        errors.append(f"{where}: no trace_overhead line")
    return errors


def check_without_sources(spec):
    bare = os.path.join(ROOT, ".bench_build", "selftest-nosrc")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    try:
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["without sources: run.py exited 0 or printed a result"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = check_without_sources(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(workload, trace, spec,
                                 run(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("passed" if not errors else f"failed ({len(errors)})"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
