"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workload mc --seeds 1-10 [--seconds 10] [--trace 0]

Prints one JSON object: per metric the values, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread, the
interquartile distance as a share of the median.  Runs go one after another,
so they never compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']}", file=sys.stderr)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None,
                         "values": vals}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "attempted": attempted, "failed": failed, "metrics": summary},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
