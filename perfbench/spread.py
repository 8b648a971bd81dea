"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs ``perfbench/run.py --trace 0`` once per seed and workload
(sequentially, so runs never compete for the CPU; workloads interleaved, so
a slow spell of the host spreads over all of them) and prints, for every
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the interquartile distance as a share of the median, next
to the metric's bound in ``BENCHMARK.json``.  Run from the repository
root::

    python3 perfbench/spread.py --workload solve-store-mixed,tricrit-solve \
        --seeds 1-10
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
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    workloads = args.workload.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    for workload, metrics in values.items():
        print(f"\n{workload}\n{'metric':45s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            print(f"{name:45s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / median:8.4f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
