"""Repeatability check: do two sets of runs of one commit agree?

    python3 perfbench/repeatability.py [--workload W ...] [--runs 10]

Runs `run.py` (trace off, BENCHMARK.json's `run_seconds`) on each workload
with seeds 1..runs, two times over, appending every result to
`.perfbench_work/repeatability.jsonl`, then reports per workload, metric
and set the median, first and third quartiles and the spread (quartile
distance over median, as `statistics.quantiles(n=4)` gives them). It flags
a metric whose spread exceeds its bound in BENCHMARK.json, and a second
set whose median is worse than the first set's by more than the bound.
Exits 1 when anything is flagged.
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
OUT = ROOT / ".perfbench_work" / "repeatability.jsonl"
SETS = 2


def run_sets(workloads, runs: int, seconds: int) -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.unlink(missing_ok=True)
    for set_no in range(1, SETS + 1):
        for workload in workloads:
            for seed in range(1, runs + 1):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=False,
                )
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                env = json.loads(lines[0][4:]) if lines and lines[0].startswith("env ") else None
                row = {"workload": workload, "set": set_no, "seed": seed,
                       "exit": proc.returncode, "env": env, "result": result}
                with open(OUT, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row) + "\n")
                summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()} \
                    if result else proc.stderr[-500:]
                print(f"set {set_no} {workload} seed {seed}: {summary}", flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def report(rows: list[dict], spec: dict) -> int:
    flagged = 0
    for row in rows:
        result = row["result"]
        if result is None or not result["correct"]:
            print(f"FLAG {row['workload']} set {row['set']} seed {row['seed']}: "
                  f"exit {row['exit']}, result {result and result['failed']} failed ops")
            flagged += 1
    print(f"{'workload':12s} {'metric':18s} {'set':>3s} {'n':>3s} {'q1':>12s} "
          f"{'median':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload in dict.fromkeys(r["workload"] for r in rows):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_no in sorted({r["set"] for r in rows}):
                values = [r["result"]["metrics"][name]["value"] for r in rows
                          if r["workload"] == workload and r["set"] == set_no
                          and r["result"] is not None]
                if len(values) < 2:
                    continue
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median
                medians.append(median)
                marks = []
                if spread > bound:
                    marks.append("SPREAD>BOUND")
                elif spread > bound / 3:
                    marks.append("spread>bound/3")
                if len(medians) > 1 and worse_by(medians[0], median, metric["better"]) > bound:
                    marks.append("WORSE-THAN-SET-1")
                flagged += any(m.isupper() for m in marks)
                print(f"{workload:12s} {name:18s} {set_no:3d} {len(values):3d} {q1:12.5g} "
                      f"{median:12.5g} {q3:12.5g} {spread:7.4f} {bound:6.3f} {' '.join(marks)}")
    return 1 if flagged else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="compare sets of benchmark runs")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    run_sets(args.workload or names, args.runs, spec["run_seconds"])
    rows = [json.loads(line) for line in OUT.read_text(encoding="utf-8").splitlines()]
    return report(rows, spec)


if __name__ == "__main__":
    sys.exit(main())
