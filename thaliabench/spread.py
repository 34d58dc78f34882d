"""Steadiness report: run each workload over several seeds, in sets.

    python3 thaliabench/spread.py --workloads query-hot,site-mix \\
        --seeds 10 --sets 2 --raw runs.jsonl

For every workload and end-to-end metric it prints, per set, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound from
``BENCHMARK.json``, and the change of the median from the first set.
Runs alternate workloads inside a set so slow drift of the host lands
on every workload alike.  ``raw.*`` rows are the metrics without
host-speed normalisation, from the same runs.  A spread over its bound is flagged for every
metric, ``setup_s`` included.  Runs with failed operations are kept and
listed above the table, with the longest wall time of one run.  Results
are appended to ``--raw`` as JSON lines so a report can be rebuilt
without rerunning.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{workload} seed {seed} printed no result "
                         f"({done.returncode}):\n{done.stdout}\n"
                         f"{done.stderr}") from None
    if result["failed"]:
        # A failed check is a finding about the program, not a lost
        # measurement: keep the run and report the failure.
        print(f"{workload} seed {seed}: {result['failed']} failed\n"
              + "\n".join(line for line in lines if "FINDING" in line),
              flush=True)
    # Each run also prints its metrics without host-speed
    # normalisation on "raw" lines; they show what it changes.
    for line in lines:
        words = line.split()
        if len(words) == 4 and words[0] == "raw":
            result["metrics"][f"raw.{words[1]}"] = {
                "value": float(words[2]), "unit": words[3]}
    result["wall_s"] = time.monotonic() - started
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(rows: list[dict], bounds: dict[str, float],
           lower: set[str]) -> str:
    """Markdown table from raw rows ``{set, workload, seed, metrics}``.

    A spread over the metric's bound is flagged **over**; a median that
    is worse than set 1's by more than the bound is flagged **worse**
    (*lower* names the metrics where lower is better)."""
    failed = [f"{row['workload']} seed {row['seed']} (set {row['set']}): "
              f"{row['failed']} of {row['attempted']} failed"
              for row in rows if row.get("failed")]
    walls = [row["wall_s"] for row in rows if "wall_s" in row]
    lines = [f"Runs with failed operations: {'; '.join(failed) or 'none'}.",
             ""]
    if walls:
        lines += [f"Longest run: {max(walls):.1f} s of wall time.", ""]
    lines += [
             "| workload | metric | bound | set | median | Q1 | Q3 | "
             "spread | median vs set 1 |",
             "|---|---|---|---|---|---|---|---|---|"]
    workloads = sorted({row["workload"] for row in rows})
    sets = sorted({row["set"] for row in rows})
    names = {name for row in rows for name in row["metrics"]}
    metrics = [(name, bound) for name, bound in bounds.items()] + \
        [(f"raw.{name}", bound) for name, bound in bounds.items()
         if f"raw.{name}" in names]
    for workload in workloads:
        for metric, bound in metrics:
            first = None
            for number in sets:
                values = [row["metrics"][metric]["value"] for row in rows
                          if row["workload"] == workload
                          and row["set"] == number
                          and metric in row["metrics"]]
                if len(values) < 2:
                    continue
                median, q1, q3, spread = summarize(values)
                first = median if first is None else first
                flag = "" if spread <= bound else " **over**"
                change = median / first - 1
                worse = change if metric.split(".")[-1] in lower \
                    else -change
                moved = " **worse**" if worse > bound else ""
                lines.append(
                    f"| {workload} | {metric} | {bound:.2f} | {number} | "
                    f"{median:.4g} | {q1:.4g} | {q3:.4g} | "
                    f"{spread:.3f}{flag} | {change:+.3f}{moved} |")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--raw", default=None,
                        help="append raw results here (JSON lines)")
    parser.add_argument("--from-raw", default=None,
                        help="only rebuild the table from this file")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"]
              for entry in config["end_to_end"]}
    lower = {entry["name"] for entry in config["end_to_end"]
             if entry["better"] == "lower"}
    seconds = config["run_seconds"]
    workloads = args.workloads.split(",")
    if args.from_raw:
        rows = [json.loads(line) for line in
                Path(args.from_raw).read_text().splitlines() if line]
        rows = [row for row in rows if row["workload"] in workloads]
        print(report(rows, bounds, lower))
        return 0
    rows = []
    for number in range(1, args.sets + 1):
        for offset in range(args.seeds):
            seed = args.first_seed + offset
            for workload in workloads:
                result = run_once(workload, seed, seconds)
                row = {"set": number, "workload": workload, "seed": seed,
                       "metrics": result["metrics"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "wall_s": round(result["wall_s"], 2)}
                rows.append(row)
                if args.raw:
                    with open(args.raw, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps(row) + "\n")
                print(f"set {number} {workload} seed {seed}: " + ", ".join(
                    f"{name}={entry['value']:.4g}"
                    for name, entry in result["metrics"].items()),
                    flush=True)
    print(report(rows, bounds, lower))
    return 0


if __name__ == "__main__":
    sys.exit(main())
