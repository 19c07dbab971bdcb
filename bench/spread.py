"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --seeds 1 2 3 4 5 [--workloads NAME ...] [--trace 1]
                            [--write bench/BENCH_0.json]

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json. ``--write``
stores the summary under "end_to_end" or "per_layer" (keeping the other
section of an existing file) with the environment of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write")
    args = parser.parse_args(argv)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        rows = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        summary[workload] = {
            "seeds": args.seeds, "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs), "metrics": rows,
        }
        print(f"{workload}: {summary[workload]['failed']}/{summary[workload]['attempted']} failed")
        for name, row in rows.items():
            bound = bounds[name]
            flag = "" if bound is None or row["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:40s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.4f}  bound {bound}{flag}")
    if args.write:
        env_file = ROOT / ".bench_out" / f"{args.workloads[-1]}-seed{args.seeds[-1]}-trace{args.trace}.json"
        path = Path(args.write)
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline["environment"] = json.loads(env_file.read_text())["environment"]
        baseline["run_seconds"] = args.seconds
        baseline["per_layer" if args.trace else "end_to_end"] = summary
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
