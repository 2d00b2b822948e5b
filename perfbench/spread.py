"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-warm --seeds 1 2 3 4 5

For every metric the table shows the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the first and third quartile as a share of the median.  An
end-to-end spread above a third of the metric's bound in
``BENCHMARK.json`` is flagged.  Exits non-zero if any run fails or
reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {item["name"]: item.get("bound") for item in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name) if not args.trace else None
        flag = " <-- above bound/3" if bound is not None and spread > bound / 3 else ""
        print(f"{name:26s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
