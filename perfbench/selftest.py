#!/usr/bin/env python3
"""Runs the benchmark's own tests (see perfbench/README.md).

    python3 perfbench/selftest.py

1. Every correctness check is fed a good output, which it must accept, and
   deliberately broken ones (a flipped payload byte, a missing round, a
   differing final-model digest, ...), which it must reject.
2. Determinism: each sim workload's scenario document, at seed 1, is
   byte-identical at one worker thread and at nproc threads (about two
   minutes and 3 GB of memory for flat_gossip_64).

Run from the root of a checkout; builds like run.py. Exits 0 when every
case holds.
"""

import os
import sys

from run import build, run_binary

SIM_WORKLOADS = ("paper_tradeoff", "flat_gossip_64")


def main():
    binary = os.path.join(build(), "perfbench_selftest")
    runs = [[binary]] + [[binary, "--determinism", w] for w in SIM_WORKLOADS]
    failed = 0
    for args in runs:
        code, stdout = run_binary(args, timeout=600)
        sys.stdout.write(stdout)
        failed += code != 0
    print("selftest:", "FAILED" if failed else "all passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
