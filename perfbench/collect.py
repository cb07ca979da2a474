"""Run the benchmark over several seeds and summarise every metric.

From the repository root:

    python3 perfbench/collect.py --seeds 1-10 --seconds 20 --out perfbench/baseline.json

Runs are sequential, one process at a time. For each workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, marking spreads above a third of the metric's bound in
BENCHMARK.json. --out writes the summary and the machine description as JSON.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"header": lines[0], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {"seconds": args.seconds, "seeds": seed_list(args.seeds), "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            run = one_run(workload, seed, args.seconds, args.trace)
            runs.append(run["result"])
            summary["machine"] = run["header"].split("; ", 1)[1]
            print(f"{workload} seed {seed}: correct={run['result']['correct']} "
                  f"attempted={run['result']['attempted']} failed={run['result']['failed']}",
                  flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            flag = "  <-- above bound/3" if bound and stats["spread"] > bound / 3 else ""
            print(f"  {name:<32} median {stats['median']:.6g} {stats['unit']:<11} "
                  f"spread {stats['spread']:.4f}{flag}  "
                  + " ".join(f"{v:.4g}" for v in stats["values"]), flush=True)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
