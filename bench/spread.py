"""Run one workload on several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--trace 1]

For every metric: the values, their median, the quartiles from
``statistics.quantiles(values, n=4)`` and the distance between the
quartiles as a share of the median. Runs are sequential; the run and its
wall time are appended to ``.bench_run/spread-<workload>.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    log = ROOT / ".bench_run" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with log.open("a") as fh:
            fh.write(json.dumps({"seed": seed, "wall_s": wall, **result}) + "\n")
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, {values}", flush=True)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name}: median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  iqr/median {share:.4f}")


if __name__ == "__main__":
    main()
