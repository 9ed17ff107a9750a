"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--seconds S]

Each run is a separate `perfbench/run.py` process, one after another.  For
every workload and metric it prints the median of the runs, their first and
third quartiles, and the spread (Q3 - Q1) / median next to the metric's
bound from BENCHMARK.json, plus the share of failed operations.  The
reference figures in perfbench/README.md come from this command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']} {line}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"{workload:<14} {name:<12} median {med:<10.5g} Q1 {q1:<10.5g} "
                  f"Q3 {q3:<10.5g} spread {(q3 - q1) / med:.4f} (bound {bounds[name]})")
        print(f"{workload:<14} failed share(s): {sorted(shares)}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
