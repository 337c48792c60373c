#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload anchored-s90 --seeds 1-10 --seconds 25

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles as a share of that median,
which is how a run-to-run spread is compared with a metric's bound in
``BENCHMARK.json``. ``--json PATH`` also stores the per-seed values and the
summary in PATH under the key "<workload> --trace <0|1>", keeping the other
keys already there (``baseline.json`` is written this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="e.g. 1-10 or 3,5,8 (default 1-10)")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", type=Path, help="store the per-seed values here")
    args = parser.parse_args()

    runs = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.6g}" for k, v in runs[seed].items()),
              flush=True)

    summary = {}
    for metric, unit in units.items():
        values = [r[metric] for r in runs.values()]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else None
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "unit": unit,
                           "iqr_share": spread}
        print(f"{metric}: median {med:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, "
              f"spread {'-' if spread is None else f'{spread:.2%}'} of median")
    if args.json:
        doc = json.loads(args.json.read_text(encoding="utf-8")) if args.json.is_file() else {}
        doc[f"{args.workload} --trace {args.trace}"] = {
            "seconds": args.seconds, "seeds": runs, "summary": summary}
        args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
