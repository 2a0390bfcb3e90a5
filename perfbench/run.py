#!/usr/bin/env python3
"""Runs one workload of the soid benchmark and prints its result.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 \
        --trace 0 [--smoke]

Run from the repository root. The script

  1. builds perfbench/ (its own CMake package, which compiles ../src)
     into .bench_build/perfbench, configuring it on first use;
  2. generates London and writes the snapshot the run restores, in a
     separate process, so data generation counts toward neither set-up
     time nor peak RSS;
  3. runs the workload in soi_perfbench, which checks every soid answer
     against a direct QueryEngine::TryRun;
  4. checks that the report names exactly the metrics BENCHMARK.json
     declares (end_to_end for --trace 0, per_layer for --trace 1), prints
     the diagnostics, and prints as its last line one JSON object with
     the keys correct, attempted, failed and metrics.

It exits non-zero without printing a result when the build, the data
preparation or the run fails, and with exit code 1 after printing the
result when an answer was wrong. perfbench/README.md documents the
workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 60
# Everything after the build must end within the 180 s a run may take.
RUN_BUDGET_S = 170
SMOKE_SCALE = 0.02


class StepFailed(Exception):
    pass


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def run_step(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0 and not capture:
        raise StepFailed("%s exited with %d" % (cmd[0], proc.returncode))
    return proc.returncode, out


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", build_dir, "--target", "soi_perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "soi_perfbench")
    if not os.path.exists(binary):
        raise StepFailed("build produced no soi_perfbench binary")
    return binary


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_report(report, trace):
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in report:
            raise StepFailed("report lacks " + key)
    declared = declared_metrics(trace)
    got = report["metrics"]
    if report["correct"]:
        if set(got) != set(declared):
            raise StepFailed(
                "metrics %s differ from BENCHMARK.json %s"
                % (sorted(got), sorted(declared)))
        for name, metric in got.items():
            value = metric["value"]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise StepFailed("metric %s is not a finite number" % name)
            if metric["unit"] != declared[name]:
                raise StepFailed("metric %s has unit %s, declared %s"
                                 % (name, metric["unit"], declared[name]))
    if not isinstance(report["attempted"], int) or report["attempted"] < 1:
        raise StepFailed("attempted must be a positive integer")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny city and pool; finishes in seconds")
    args = parser.parse_args()

    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    try:
        binary = build(build_dir)
        deadline = time.monotonic() + RUN_BUDGET_S
        os.makedirs(run_dir, exist_ok=True)
        snapshot = os.path.join(run_dir, "london.snap")
        prepare = [binary, "prepare", "--out=" + snapshot]
        if args.smoke:
            prepare.append("--scale=%g" % SMOKE_SCALE)
        run_step(prepare, PREPARE_TIMEOUT_S)

        cmd = [binary, "run", "--workload=" + args.workload,
               "--snapshot=" + snapshot, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
        if args.smoke:
            cmd.append("--smoke")
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd.append("--trace-out=" + os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed)))
        code, out = run_step(cmd, max(1.0, deadline - time.monotonic()),
                             capture=True)
        lines = [line for line in out.splitlines() if line.strip()]
        if code not in (0, 1) or not lines:
            raise StepFailed("soi_perfbench exited with %d" % code)
        report = json.loads(lines[-1])
        check_report(report, args.trace)
    except (StepFailed, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log("failed: %s" % error)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    info = report.get("info", {})
    for name, value in info.items():
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        print("info %s = %s" % (name, value))
    for name, metric in report["metrics"].items():
        print("metric %s = %.6g %s" % (name, metric["value"], metric["unit"]))
    result = {key: report[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
