#!/usr/bin/env python3
"""The repository benchmark: build, generate inputs from a seed, measure.

Run from the root of a checkout:

    python3 perfbench/run.py --workload human-proxy --seed 1 --trace 0

--workload   human-proxy | yeast-giraffe | yeast-serve | all
--seed       workload seed: the same seed gives the same inputs
--seconds    length of the timed phase
--trace      0: end-to-end metrics (untraced); 1: the per-layer table
--self-test  run the open-loop generator's stall self-test and exit

The program is built from ../src into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); inputs, records and span dumps go to
.bench_work/<workload>/, replaced by the next run.  The table and the
correctness verdict are printed first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics (the
BENCHMARK.json metrics of the chosen trace mode, each with its value
and unit).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("human-proxy", "yeast-giraffe", "yeast-serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (git unavailable)"
    return out.stdout.strip() or "unknown (git rev-parse failed)"


def build():
    """Configure (once) and build the measuring program; return its dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mapper sources (src/CMakeLists.txt) next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(nproc())],
        stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    return build_dir


def run_once(build_dir, config, workload, seed, seconds, trace):
    """Generate inputs and measure one workload; return its record."""
    work = os.path.join(ROOT, ".bench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    program = os.path.join(build_dir, "mg_perfbench")
    cores = str(nproc())
    common = ["--workload", workload, "--seed", str(seed), "--nproc", cores,
              "--dir", "."]
    try:
        gen = subprocess.run([program, "gen"] + common, cwd=work,
                             stdout=sys.stderr, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S)
        if gen.returncode != 0:
            fail("input generation failed for %s" % workload)
        record_name = "record-trace%d.json" % trace
        run = subprocess.run(
            [program, "run"] + common +
            ["--seconds", repr(float(seconds)), "--trace", str(trace),
             "--out", record_name, "--commit", commit(),
             "--slo-p99-ms", repr(float(config["slo_p99_ms"]))],
            cwd=work, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        fail("%s run failed (exit %d)" % (workload, run.returncode))
    with open(os.path.join(work, record_name)) as f:
        return json.load(f)


def select(record, names):
    metrics = {}
    for name in names:
        if name not in record["metrics"]:
            fail("record of %s lacks metric %s" % (record["workload"], name))
        m = record["metrics"][name]
        if m["value"] is None:
            fail("metric %s of %s is not a number"
                 % (name, record["workload"]))
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    build_dir = build()
    if args.self_test:
        test = subprocess.run(
            [os.path.join(build_dir, "loadgen_stall_test")],
            cwd=build_dir, timeout=RUN_TIMEOUT_S)
        sys.exit(test.returncode)
    if args.workload is None:
        fail("--workload is required")
    seed = config["dev_seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0:
        fail("--seconds must be positive")

    if args.workload != "all":
        record = run_once(build_dir, config, args.workload, seed, seconds,
                          args.trace)
        kind = "per_layer" if args.trace else "end_to_end"
        names = [m["name"] for m in spec[kind]]
        result = {"correct": bool(record["correct"]),
                  "attempted": max(1, int(record["attempted"])),
                  "failed": int(record["failed"]),
                  "metrics": select(record, names)}
        print(json.dumps(result))
        return

    # Every workload, untraced then traced: all metrics, tables, verdicts.
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            record = run_once(build_dir, config, workload, seed, seconds,
                              trace)
            result["correct"] &= bool(record["correct"])
            result["attempted"] += int(record["attempted"])
            result["failed"] += int(record["failed"])
            for name, m in select(record,
                                  [m["name"] for m in spec[kind]]).items():
                result["metrics"][workload + "/" + name] = m
    result["attempted"] = max(1, result["attempted"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
