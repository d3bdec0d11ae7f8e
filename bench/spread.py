"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1]
                            [WORKLOAD ...]

Runs bench/run.py once per seed (first-seed, first-seed+1, ...) on each
workload with BENCHMARK.json's run_seconds, then prints for every metric
its median, quartiles and (q3 - q1) / median next to the metric's bound.
Every run's result line is appended to .bench_out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    log = ROOT / ".bench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace,
                                     "exit": proc.returncode, **result})
                         + "\n")
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds[name]
            flag = "" if bound is None or rel <= bound / 3 else "  > bound/3"
            print(f"  {name:32s} median {q2:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {rel:.4f}"
                  + (f" bound {bound}" if bound is not None else "") + flag)
    return status


if __name__ == "__main__":
    sys.exit(main())
