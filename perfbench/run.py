#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_tradeoff --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
program's sources and the benchmark into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; later runs rebuild only what changed.
Build output goes to a log file, and to stderr if the build fails. The
benchmark binary's standard output is passed through, so the last line is
its JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_tradeoff", "flat_gossip_64", "tcp_exchange")
# The longest unit of work a run repeats (one flat_gossip_64 sweep takes
# about 40-46 s). A run stops after the first unit that ends past
# --seconds, so it needs at most --seconds plus one unit; two units and a
# margin leave room for a slow host.
LONGEST_UNIT_S = 60


def run_timeout(seconds):
    """Seconds a run of --seconds `seconds` may take before it is killed."""
    return seconds + 2 * LONGEST_UNIT_S + 30


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir.

    Exits the process with status 1 if either step fails.
    """
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode
            if code != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-8000:])
                sys.stderr.write(f"perfbench: build step failed: {' '.join(step)}\n")
                sys.exit(1)
    return out


def run_binary(args, timeout):
    """Runs a built binary with `args`; returns (exit code, stdout)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"perfbench: {args[0]} ran past {timeout} s\n")
        return 1, ""
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    out = build()
    binary = os.path.join(out, "perfbench_traced" if opts.trace else "perfbench")
    code, stdout = run_binary([
        binary, "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
        run_timeout(opts.seconds))
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
