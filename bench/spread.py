"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload scan-diag --seeds 1-10

For every end-to-end metric it prints the median of the runs, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  Runs one seed at a
time, from the repository root, with the run length BENCHMARK.json sets.
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
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"digest={detail['digest'][:16]} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for key, vals in values.items():
        med = statistics.median(vals)
        line = f"{key:40s} median {med:.6g}"
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            line += f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
            if key in bounds:
                line += f"  bound {bounds[key]}  (a third: {bounds[key] / 3:.4f})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
