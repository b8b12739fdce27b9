"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload markov-apply --seeds 1-10 --seconds 30

Runs one benchmark process at a time, from the checkout root, and prints for
every end-to-end metric the median, the quartiles and the spread: the
distance between the first and third quartile (``statistics.quantiles`` with
n=4) as a share of the median.  Also prints the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()

    results = []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        r = run_once(args.workload, seed, args.seconds)
        results.append(r)
        values = {k: round(m["value"], 5) for k, m in r["metrics"].items()}
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} {values}", flush=True)
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:18s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / abs(med):.4f}  min {min(vals):.6g}  max {max(vals):.6g}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
