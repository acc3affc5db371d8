"""Steadiness: run each workload repeatedly and report every metric's spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b]

Runs ``run.py`` ``--runs`` times per workload, each with another seed,
alternating the order of the workloads from one pass to the next.  For
each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as
a share of the median, next to the bound in ``BENCHMARK.json`` and a
third of it.  It also prints the share of failed operations per run.
The bounds in ``BENCHMARK.json`` were set from this spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) of ``values``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {name: [] for name in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            seed = args.first_seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            results[name].append(result)
            print(f"{name} seed {seed}: {wall:.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)

    worst = 0.0
    for name, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{name}: {len(runs)} runs, wall median "
              f"{statistics.median(r['wall_s'] for r in runs):.1f} s, "
              f"failed shares {shares}")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound/3':>8}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, spread = quartile_spread(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = f"{bound / 3:8.3f}"
                if metric != "setup_s":
                    worst = max(worst, spread / bound)
                    flag += "  OVER" if spread > bound / 3 else ""
            print(f"  {metric:<34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {flag}")
    print(f"\nlargest spread / bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
