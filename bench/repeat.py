"""Repeat bench/run.py over several seeds and summarise each metric.

    python3 bench/repeat.py --workloads fem-converge,design-batch --seeds 1-10 \
        [--summary bench/out/summary.json]

Each run is untraced and lasts run_seconds from BENCHMARK.json. For every
workload and end-to-end metric it prints the median and the quartile
spread, (Q3 - Q1) / median with ``statistics.quantiles(values, n=4)``,
next to the metric's bound. Runs are sequential. Comparing two commits:
run this on each, on the same machine, and compare the summaries.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    p.add_argument("--summary", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"in {took:.1f} s",
                  file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else None
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name), "values": values}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
            print(f"{workload:15s} {name:26s} median {median:12.6g} "
                  f"spread {spread if spread is None else round(spread, 4)!s:>8s} "
                  f"bound {bound!s:>5s} {flag}")
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics}
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
