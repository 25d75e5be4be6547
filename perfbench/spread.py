"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workloads sweep --seeds 1-10
    python3 perfbench/spread.py --workloads factor-long cli-short sweep --seeds 1-10 \
        --traced-seeds 1,2 --commit <sha> --out perfbench/results/BENCH_<tag>.json

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Runs are
sequential, because the benchmark is a single closed loop and must not share
the machine with itself. --out writes every run, the summaries and machine
notes: the BENCH file a performance claim cites.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def series(workload: str, seed_list: list[int], seconds: float, trace: int) -> dict:
    runs = []
    for seed in seed_list:
        result = run_once(workload, seed, seconds, trace)
        runs.append({"seed": seed, **result})
        print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = summarize(runs)
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, s in summary.items():
        print(f"{name:<36} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
              f"{s['spread']:>8.3f} {s['unit']}")
    return {"runs": runs, "summary": summary}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--traced-seeds", type=seeds, default=[])
    parser.add_argument("--commit", default=None, help="recorded in --out")
    parser.add_argument("--out", help="write every run, the summaries and machine notes")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    results = {}
    for workload in args.workloads:
        results[workload] = {"end_to_end": series(workload, args.seeds, seconds, 0)}
        if args.traced_seeds:
            results[workload]["per_layer"] = series(workload, args.traced_seeds, seconds, 1)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"commit": args.commit, "machine": machine(), "seconds": seconds,
                       "seeds": args.seeds, "traced_seeds": args.traced_seeds,
                       "workloads": results}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
