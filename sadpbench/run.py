#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload once.

    python3 sadpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The driver and the router's libraries are
compiled with CMake (Ninja when available) into .bench_build/sadpbench; the
root build files are not used.  Build output and the driver's logs go to
stderr.  The last line on stdout is always the JSON result line, a failing
one when the build, the checker's tests or the driver fail; only when the
router's sources are missing does the script exit non-zero without one.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sadpbench")
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build once per checkout; later calls are no-op checks."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) != 0:
            return False
        # The checker's own tests gate every run: a checker that accepts a
        # broken solution would make every "correct" below meaningless.
        return subprocess.call([os.path.join(BUILD, "checker_test")],
                               stdout=sys.stderr) == 0


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def validate(result, traced):
    """Problems with the driver's result line, as a list of strings."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result line does not have exactly the four keys"]
    want = expected_metrics(traced)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                        "unit %s" % (missing, extra, wrong))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: router sources not found under %s/src" % ROOT)
        return 2
    failure = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if not build():
        log("run.py: build or checker tests failed")
        print(json.dumps(failure), flush=True)
        return 1

    command = [os.path.join(BUILD, "sadpbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    # A cold checkout's build may take minutes; the driver's time limit
    # starts after it.
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("run.py: driver exceeded %d s and was stopped" % DRIVER_TIMEOUT_S)
        print(json.dumps(failure), flush=True)
        return 1

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log(lines[-1])
    problems = (["driver printed no result line (exit %d)" % proc.returncode]
                if result is None else validate(result, args.trace))
    if problems:
        for problem in problems:
            log("run.py: " + problem)
        print(json.dumps(failure), flush=True)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
