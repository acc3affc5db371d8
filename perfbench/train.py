"""The train workloads: fixed-budget fits, one process per round.

Each round is a fresh ``train_round.py`` process (so set-up time and peak
memory are measured per process launch); rounds start until the run's
seconds are spent.  Round ``r`` of seed ``s`` fits with seed
``s * 1000 + r``: the same seed gives the same rounds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Dict, List

from common import HERE, Spans, child_env, median, percentile

ROUND_TIMEOUT_S = 120
#: A traced round's loader + forward + backward + optimizer time must be
#: within this share of its step wall time.
COVERAGE_TOL_PCT = 5.0


def run_round(model: str, seed: int, trace: bool) -> dict:
    """Launch one round; adds ``setup_s`` (launch to first train step)."""
    cmd = [sys.executable, str(HERE / "train_round.py"),
           "--model", model, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    launched = time.time()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"train round {model} seed {seed} exited "
                           f"with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["fit_start"] - launched
    return report


def run_train(model: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds until ``seconds`` are spent; returns the workload result.

    Traced runs alternate traced and untraced rounds (at least one of
    each) so the tracing overhead is measured within the run.
    """
    start = time.perf_counter()
    rounds: List[dict] = []
    while (not rounds or time.perf_counter() - start < seconds
           or (trace and len(rounds) < 2)):
        traced = trace and len(rounds) % 2 == 0
        rounds.append(run_round(model, seed * 1000 + len(rounds), traced))
        rounds[-1]["traced"] = traced

    failed = [r for r in rounds if not all(r["checks"].values())]
    for r in failed:
        bad = [k for k, ok in r["checks"].items() if not ok]
        print(f"round failed checks: {', '.join(bad)}", file=sys.stderr)
    # Medians over rounds: the host's speed varies, and a median keeps one
    # slow round from moving a run's figures.
    plain = [r for r in rounds if not r["traced"]]
    step_p50 = median([percentile(r["step_ms"], 50) for r in plain])
    e2e = {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "windows_per_s": median([r["windows"] / r["train_seconds"]
                                 for r in plain]),
        "test_mse": median([r["test_mse"] for r in rounds]),
        "peak_rss_mb": max(r["peak_rss_mib"] for r in rounds),
        "latency_p50_ms": step_p50,
    }
    # The tail is printed, not gated: see README.md, "End-to-end metrics".
    out = {"attempted": len(rounds), "failed": len(failed), "e2e": e2e,
           "samples": {"rounds": len(rounds),
                       "train_steps": sum(len(r["step_ms"]) for r in plain),
                       "latency_p90_ms": round(median(
                           [percentile(r["step_ms"], 90) for r in plain]),
                           3)}}
    if trace:
        traced = [r for r in rounds if r["traced"]]
        layer = _mean_layers([r["layer"] for r in traced])
        traced_p50 = median([percentile(r["step_ms"], 50) for r in traced])
        layer["trace.overhead_pct"] = 100.0 * (traced_p50 / step_p50 - 1.0)
        bad_coverage = [r for r in traced if abs(
            r["layer"]["trace.coverage_pct"] - 100.0) > COVERAGE_TOL_PCT]
        if bad_coverage:
            print(f"{len(bad_coverage)} traced round(s) cover less than "
                  f"{100 - COVERAGE_TOL_PCT:.0f}% of the step wall time",
                  file=sys.stderr)
        out["failed"] = len({id(r) for r in failed + bad_coverage})
        spans = Spans()
        for i, r in enumerate(traced):
            spans.extend(r["spans"], round=i)
        out["layer"] = layer
        out["spans"] = spans
    return out


def _mean_layers(layers: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: sum(d[k] for d in layers) / len(layers) for k in layers[0]}
