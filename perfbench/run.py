#!/usr/bin/env python3
"""End-to-end benchmark of the nonlocal heat solver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the library and the benchmark driver from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs one workload. The driver's last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; this
script checks that its metric names are the ones BENCHMARK.json lists for
the requested kind and passes it through. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def run_logged(cmd, log):
    with open(log, "a") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "nlh_perfbench", "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                sys.stderr.write(f.read()[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "nlh_perfbench")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    binary = build()
    if binary is None:
        return 1
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if "--selftest" in argv:
        sys.stdout.write(stdout)
        return proc.returncode
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        return proc.returncode
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: the driver printed no result\n")
        return 1
    trace = argv[argv.index("--trace") + 1] == "1"
    if sorted(result["metrics"]) != sorted(expected_names(trace)):
        sys.stderr.write("perfbench: metric names differ from BENCHMARK.json\n")
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
