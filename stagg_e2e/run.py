#!/usr/bin/env python3
"""Build and run the stagg_e2e benchmark from the root of a stagg checkout.

    python3 stagg_e2e/run.py --workload lu_batch_t30 --seed 1 --seconds 15 --trace 0
    python3 stagg_e2e/run.py --test

The library and the benchmark are built from source into .bench_build/
(CMake, Release) on first use.  The benchmark's stdout is passed through;
its last line is the result object.  BENCHMARK.json is the one list of
metrics: the benchmark prints the metrics it measured, each must be in that
list with the same unit, and a per-layer metric of a layer the workload
never enters is added here as 0.
Exits non-zero, without a result line, when the checkout holds no stagg
sources to build.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
OUT_DIR = os.path.join(BUILD, "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("stagg_e2e: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout, or when this script
    is terminated, kills the whole group (compilers under make, too) and
    waits for it.  Returns (code, stdout) or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)

    def terminate(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no stagg sources next to %s; nothing to build" % HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        done = run_group(cmd, BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT)
        if done is None:
            fail("build timed out: " + " ".join(cmd))
        if done[0] != 0:
            sys.stderr.write(done[1][-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(CMAKE_DIR, target)


def complete_metrics(result, trace):
    """Puts the result's metrics in BENCHMARK.json's order and units.  A
    per-layer metric the workload did not measure reads 0; a missing
    end-to-end metric means the run broke off, so the result is incorrect."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            fail("metric %s [%s] is not in BENCHMARK.json with that unit"
                 % (name, m["unit"]))
    if not trace and set(units) - set(got):
        result["correct"] = False
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": u})
                         for n, u in units.items()}
    return result


def run_benchmark(args):
    binary = build("stagg_e2e")
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    done = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if done is None:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    code, stdout = done
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result (exit %d)" % code)
    result = complete_metrics(result, args.trace == 1)
    print(json.dumps(result))
    sys.stdout.flush()
    return code if result["correct"] else max(code, 1)


def run_tests():
    binary = build("stagg_e2e_tests")
    os.makedirs(OUT_DIR, exist_ok=True)
    done = run_group([binary, OUT_DIR], 600)
    if done is None:
        fail("tests exceeded 600 s")
    return done[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if not args.workload:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
