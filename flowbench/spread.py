"""Run the benchmark over several seeds and report each metric's spread.

It runs the untraced mode (``--trace 0``), whose end-to-end metrics are
the ones ``BENCHMARK.json`` bounds.  The spread of a metric is the
distance between the first and third quartile of its per-run values, as
a share of their median.  Example (ten runs, about five minutes)::

    python3 flowbench/spread.py --workload fenced --seeds 1-10 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    runs = []
    for seed in seeds_from(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        character = next((ln for ln in lines if ln.startswith("flowbench character:")), "")
        flows = next((ln for ln in lines if ln.startswith("flowbench flows:")), "")
        print(f"seed {seed}: correct={result['correct']} {character[21:]} {flows[17:]}",
              flush=True)
        runs.append(result)
    names = list(runs[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        line = f"{name:28s} median {statistics.median(values):14.6g}"
        if len(values) >= 2:
            line += f"  spread {spread(values):8.4f}"
        print(line)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
