#!/usr/bin/env python3
"""Determinism self-test of the serving benchmark.

    python3 servebench/selftest.py

For each workload of the benchmark, at one second of stream: two
untraced runs with seed 1 must report identical stream-derived counts
(hits, truncations, batches, applied and coalesced updates, search steps,
G_v nodes) and identical answer digests; a traced run with that seed must
report the same digest; and a run with seed 2 must report different
counts.  Only the times may differ.  Exits 0 when every check holds.
Correctness of the answers is the benchmark's own check; a run that
reports wrong answers is listed but does not make this test fail.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cd_filter", "community_churn", "community_shard"]
SEED = 1
OTHER_SEED = 2
SECONDS = 1
COUNTS = ["reads", "hits", "truncated", "search_steps", "gv_nodes",
          "batches", "applied", "coalesced"]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no output "
                           f"(exit {proc.returncode})")
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  note: {workload} seed {seed} trace {trace} reported "
              f"{result['failed']} failed of {result['attempted']}")
    return info


def main():
    problems = []
    for workload in WORKLOADS:
        first = run(workload, SEED, 0)
        again = run(workload, SEED, 0)
        traced = run(workload, SEED, 1)
        other = run(workload, OTHER_SEED, 0)
        same = {k: first[k] for k in COUNTS}
        print(f"{workload}: seed {SEED} counts {same}")
        for key in COUNTS + ["digest"]:
            if first[key] != again[key]:
                problems.append(f"{workload}: {key} {first[key]} then "
                                f"{again[key]} with one seed")
        for key in COUNTS + ["digest"]:
            if traced[key] != first[key]:
                problems.append(f"{workload}: traced {key} {traced[key]} != "
                                f"untraced {first[key]}")
        if all(other[k] == first[k] for k in COUNTS):
            problems.append(f"{workload}: seeds {SEED} and {OTHER_SEED} "
                            "report identical counts")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
