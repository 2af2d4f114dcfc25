#!/usr/bin/env python3
"""Builds and runs the DIFFODE benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--perturb-reference]

Configures and builds perfbench/CMakeLists.txt into .bench_build/ at the
repository root (incremental after the first run), runs one workload, and
prints the program's output: a "# env {...}" line with the host, thread count,
ISA, precision, build type and seed, then the result object as the last line
of stdout. The env line and the result are also saved together under
.bench_build/results/. Build output goes to stderr. Exits non-zero, printing
no result, when the build, the run, or the result's format fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("train-ushcn", "serve-ushcn-b32")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures on first use, then builds the program; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def git_sha():
    """HEAD's commit from .git at the root, without leaving the tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def parse_result(stdout):
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or not isinstance(result["metrics"], dict):
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    env = {}
    for line in lines[:-1]:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    return env, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt the reference outputs (tests only)")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print("perfbench: program exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        env, result = parse_result(proc.stdout)
    except (ValueError, IndexError) as e:
        print("perfbench: malformed program output: %s" % e, file=sys.stderr)
        return 1

    env["git_sha"] = git_sha()
    env["nproc"] = os.cpu_count()
    env["DIFFODE_NUM_THREADS"] = os.environ.get("DIFFODE_NUM_THREADS", "")
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%s.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1)

    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
