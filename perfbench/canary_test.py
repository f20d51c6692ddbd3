#!/usr/bin/env python3
"""Exact-count canary for the storage, B+-tree and exec layers.

Runs the traced read_disk workload twice with one seed and checks that
the counts it reports as exact repeat bit for bit:

    python3 perfbench/canary_test.py [--seed N] [--seconds S]

read_disk drives one connection from a seeded schedule, and these
counts cover its first open-loop block, before any closed-loop traffic:
the server sees the same requests in the same order, so its buffer pool
and device counters, and the RI-tree probe counts of the in-process
twin, must not move between runs. Exits 0 when they repeat, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

EXACT = ["device.reads_per_op", "pool.hit_ratio", "ritree.probes_per_read"]


def traced_run(seed, seconds):
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    out = subprocess.run(
        [sys.executable, run, "--workload", "read_disk", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=6)
    args = ap.parse_args()
    a = traced_run(args.seed, args.seconds)
    b = traced_run(args.seed, args.seconds)
    ok = True
    for name in EXACT:
        x, y = a[name]["value"], b[name]["value"]
        same = x == y
        ok = ok and same
        print("%-24s %r %r %s" % (name, x, y, "same" if same else "DIFFERENT"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
