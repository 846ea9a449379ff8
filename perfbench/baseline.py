#!/usr/bin/env python3
"""Re-derives the ROADMAP baseline table from the benchmark's outputs alone.

    python3 perfbench/baseline.py

Runs paper_tradeoff and flat_gossip_64 at seed 1, once untraced (wall
time, peak RSS) and once traced (where the time goes: each layer's self
time as a share of the traced run), and prints the table as markdown. No
profiler is involved; every figure is a metric the benchmark prints. The
sim workloads run on one thread, so a share of wall time is a share of
CPU. Run from the root of a checkout; builds like run.py.
"""

import json
import os
import sys

from run import build, run_binary, run_timeout

WORKLOADS = ("paper_tradeoff", "flat_gossip_64")
SEED = 1

# (label, metric) pairs whose self time is reported as a share. The spans
# nest, so self times add up to the run without double counting.
SELF_TIMES = (
    ("matmul", "ml.matmul_self_s"),
    ("keccak", "crypto.keccak_self_s"),
    ("Schnorr verify", "crypto.verify_self_s"),
    ("sha256", "crypto.sha256_self_s"),
    ("rlp", "rlp.self_s"),
    ("train loop", "ml.train_self_s"),
    ("eval", "ml.eval_self_s"),
    ("fedavg", "fl.fedavg_self_s"),
    ("block import", "chain.block_import_self_s"),
    ("Transaction::hash (self)", "chain.tx_hash_self_s"),
    ("PoW seal", "chain.mine_seal_self_s"),
    ("vm", "vm.execute_self_s"),
    ("node submit", "node.submit_tx_self_s"),
    ("core (untraced code)", "core.self_s"),
)


def run(out, workload, trace):
    binary = os.path.join(out, "perfbench_traced" if trace else "perfbench")
    code, stdout = run_binary([binary, "--workload", workload, "--seed",
                               str(SEED), "--seconds", "1", "--trace",
                               str(trace)], run_timeout(1))
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(f"baseline: {workload} (trace {trace}) failed")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"baseline: {workload} (trace {trace}) produced wrong outputs")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return result["attempted"], metrics


def main():
    out = build()

    print("| run | wall | peak RSS | where the CPU goes |")
    print("|-----|------|----------|--------------------|")
    for workload in WORKLOADS:
        rounds, plain = run(out, workload, 0)
        _, traced = run(out, workload, 1)
        wall_s = plain["round_wall_ms"] * rounds / 1e3
        traced_s = traced["trace.round_wall_ms"] * rounds / 1e3
        shares = sorted(((traced[m] / traced_s, label) for label, m in SELF_TIMES),
                        reverse=True)
        where = ", ".join(f"{label} {share:.0%}" for share, label in shares[:4])
        print(f"| `{workload}` | {wall_s:.1f} s | {plain['peak_rss_mb']:.0f} MB "
              f"| {where} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
