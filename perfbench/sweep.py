#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize its noise.

    python3 perfbench/sweep.py --seeds 1-10                  # every workload
    python3 perfbench/sweep.py --workloads figures --seeds 1-5

Each run is a fresh ``perfbench/run.py`` process.  For every end-to-end
metric the summary gives the median, the quartiles and their distance
as a share of the median (the spread), against the metric's bound in
``BENCHMARK.json``; a spread above a third of its bound is flagged.
The record, with provenance and every run's result, is written as JSON
(``--out``, default ``.perfbench/sweep.json``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from measure import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    began = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - began
    for line in lines:
        if line.startswith("provenance: "):
            result["provenance"] = json.loads(line[len("provenance: "):])
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+",
        default=[entry["name"] for entry in spec["workloads"]],
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "sweep.json")
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {entry["name"]: entry.get("bound") for entry in metrics}
    record = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    worst = 0
    for workload in args.workloads:
        runs = []
        for seed in record["seeds"]:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({result['wall_s']:.1f}s)", flush=True)
        summary = {}
        print(f"\n{workload}: {'metric':<38} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [run["metrics"][name]["value"] for run in runs]
            stats = quartiles(values)
            summary[name] = dict(stats, unit=runs[0]["metrics"][name]["unit"])
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] > bound / 3:
                flag = "  > bound/3"
                worst += 1
            print(f"  {name:<44} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
                  f"{stats['q3']:>12.6g} {stats['spread']:>8.3f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
        print()
        record["workloads"][workload] = {
            "provenance": runs[0].get("provenance"),
            "all_correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "quartiles": summary,
            "runs": runs,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(f"wrote {args.out}")
    correct = all(entry["all_correct"] for entry in record["workloads"].values())
    return 0 if correct and not worst else 1


if __name__ == "__main__":
    raise SystemExit(main())
