"""Run workloads over several seeds and report each metric's median and spread.

Usage (from the repository root):

    python3 bench/spread.py --workloads simulate-nn,exact --seeds 1-10 [--jsonl runs.jsonl]

Runs are untraced and sequential, one process at a time.  For each workload and metric it
prints the median, the first and third quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the distance between the quartiles as a share
of the median.  ``--jsonl`` appends every run's two output lines as one record, tagged
with its workload and seed, for later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--jsonl", default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
            *_, detail, last = done.stdout.strip().splitlines()
            result = json.loads(last)
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            if args.jsonl:
                with open(args.jsonl, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed, **result, **json.loads(detail)}) + "\n")
            print(f"{name} seed {seed}: correct={result['correct']}", file=sys.stderr, flush=True)
        print(json.dumps({"workload": name, "failed": failed, "metrics": {
            metric: summarize(vals) for metric, vals in values.items() if len(vals) >= 2
        }}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
