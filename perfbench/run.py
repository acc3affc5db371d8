"""The repository benchmark: train and serve the `small` TS3Net shape.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  Workloads (see README.md):

* ``train_ts3net``   fixed-budget TS3Net fits on synthetic ETTh1;
* ``train_patchtst`` the same fits with PatchTST;
* ``serve_cluster``  ``repro serve --workers 2``, one closed-loop
  keep-alive client;
* ``serve_single``   one ``repro serve`` process, two such clients; run
  only when named, as it is not in ``BENCHMARK.json``.

``all`` (the default) runs the workloads of ``BENCHMARK.json``, and
``--seconds`` defaults to its ``run_seconds``.  With ``--trace 0`` the
run reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run, whose spans are written to ``.perfbench/trace/``.
Every metric is printed by name with its unit, then the operations
attempted and failed; the last stdout line is one JSON object: the
workload's result, or with ``all`` their sum, metrics named
``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import (
    BLAS_ENV, E2E_UNITS, LAYER_UNITS, ROOT, SERVE_LAYER_UNITS, SRC,
    TRAIN_LAYER_UNITS, WORK, combine, result,
)

WORKLOADS = ("train_ts3net", "train_patchtst", "serve_cluster",
             "serve_single")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name.startswith("train_"):
        from train import run_train
        model = {"train_ts3net": "TS3Net", "train_patchtst": "PatchTST"}[name]
        return run_train(model, seed, seconds, trace)
    from serve import run_serve
    return run_serve(name, seed, seconds, trace)


def report(name: str, seed: int, trace: bool, out: dict) -> dict:
    """Print the human-readable lines; return the workload's result."""
    if trace:
        units = LAYER_UNITS
        not_run = (SERVE_LAYER_UNITS if name.startswith("train_")
                   else TRAIN_LAYER_UNITS)
        values = {**dict.fromkeys(not_run, 0.0), **out["layer"]}
    else:
        units, values = E2E_UNITS, out["e2e"]
    correct = out["failed"] == 0 and out.get("clean", True)
    res = result(correct, out["attempted"], out["failed"], values, units)
    print(f"== {name} (seed {seed}, trace {int(trace)}) "
          + " ".join(f"{k}={v}" for k, v in out["samples"].items()))
    for key, unit in units.items():
        print(f"  {key:<34} {values[key]:>14.6g} {unit}")
    print(f"  operations attempted {out['attempted']}, failed {out['failed']}")
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    os.environ.update(BLAS_ENV)
    results = {}
    for name in names:
        start = time.perf_counter()
        out = run_workload(name, args.seed, seconds, bool(args.trace))
        results[name] = report(name, args.seed, bool(args.trace), out)
        if args.trace:
            path = WORK / "trace" / f"{name}-seed{args.seed}.jsonl"
            out["spans"].write(path)
            print(f"  spans written to {path.relative_to(ROOT)}")
        print(f"  wall {time.perf_counter() - start:.1f} s")
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
