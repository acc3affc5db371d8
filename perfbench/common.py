"""Helpers shared by the benchmark's workloads.

Statistics, Prometheus text parsing, in-memory spans, the child-process
environment, process bookkeeping and the result line.  Nothing here
imports ``repro`` or numpy, so ``run.py`` can refuse to start cheaply in
a directory that holds no program.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Checkpoints and span files; inside the checkout and ignored by git.
#: Per-run scratch directories under it are removed when the run ends.
WORK = ROOT / ".perfbench"

#: One BLAS thread in every process.  The host has 2 cores shared by the
#: load generator and the server (or by the trainer and the benchmark
#: parent); multi-threaded BLAS on the small matrices of the `small` shape
#: adds run-to-run noise, not speed.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

#: End-to-end metrics -> unit.  Every workload reports every one; the
#: README says what each means on a train and on a serve workload.
E2E_UNITS = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "test_mse": "mse",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
}

OP_FAMILIES = ("conv2d", "cwt_amplitude", "gelu", "matmul", "other")

#: Module classes whose inclusive forward time is reported, by metric.
MODULE_METRICS = {
    "decomposition.series_decomp_ms": ("SeriesDecomposition",),
    "decomposition.sgd_ms": ("SpectrumGradientDecomposition",),
    "core.tf_block_ms": ("TFBlock",),
    "nn.inception_ms": ("InceptionBlock2d",),
    "core.heads_ms": ("PredictionHead", "AutoregressionHead"),
    "nn.encoder_ms": ("TransformerEncoder",),
}

#: Per-layer metrics (traced runs) -> unit, of the train workloads (per
#: train step) and of the serve workloads.  A traced run reports both
#: sets; the set its workload does not run reads 0, and any other metric
#: it does not measure is an error.
TRAIN_LAYER_UNITS: Dict[str, str] = {
    "train.step_ms": "ms",
    "data.loader_ms": "ms",
    "core.forward_ms": "ms",
    "autodiff.backward_ms": "ms",
    "optim.step_ms": "ms",
    "trace.coverage_pct": "%",
    "autodiff.op_calls": "count",
    "autodiff.saved_mib_peak": "MiB",
    **{f"autodiff.op.{fam}.{d}_ms": "ms"
       for fam in OP_FAMILIES for d in ("fwd", "bwd")},
    **{name: "ms" for name in MODULE_METRICS},
}
SERVE_LAYER_UNITS: Dict[str, str] = {
    "serving.server_ms": "ms",
    "serving.outside_server_ms": "ms",
    "serving.batch_size_mean": "count",
    "serving.batch_mismatches": "count",
    "serving.cluster.proxy_retries": "count",
    "serving.cluster.worker_restarts": "count",
    "core.forward_b1_ms": "ms",
    "core.forward_b2_ms": "ms",
    "core.batch_signature_ms": "ms",
}
LAYER_UNITS: Dict[str, str] = {**TRAIN_LAYER_UNITS, **SERVE_LAYER_UNITS,
                               "trace.overhead_pct": "%"}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)



def rel_diff(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude (0 when both are 0)."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_SAMPLE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\d+)?$')
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')

Series = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def parse_exposition(text: str) -> Series:
    """``{(name, sorted label pairs): value}`` for every sample line."""
    series: Series = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        series[(name, pairs)] = float(value)
    return series


def series_total(series: Series, name: str) -> float:
    """Sum of every sample of ``name`` over its label sets (0 if absent)."""
    return sum(v for (n, _), v in series.items() if n == name)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Spans:
    """Spans kept in memory and written out once, when the run ends."""

    def __init__(self):
        self.records: List[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs) -> int:
        """Record a finished span; returns its id (for children)."""
        span_id = len(self.records)
        self.records.append({"id": span_id, "name": name, "start": start,
                             "end": end, "parent": parent, **attrs})
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent, **attrs)

    def extend(self, records: Iterable[dict], **attrs) -> None:
        """Adopt spans recorded by a child process (ids re-based)."""
        base = len(self.records)
        for rec in records:
            parent = rec.get("parent")
            self.records.append(dict(
                rec, **attrs, id=rec["id"] + base,
                parent=None if parent is None else parent + base))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """Environment for every process that runs the model."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def session_pids(sid: int) -> List[int]:
    """Live (non-zombie) processes of session ``sid``, from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[3] the session id.
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set size of a live process, from /proc (MiB)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------

def result(correct: bool, attempted: int, failed: int,
           values: Dict[str, float], units: Dict[str, str]) -> dict:
    """A run's result: exactly the metrics named in ``units``."""
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def combine(results: Dict[str, dict]) -> dict:
    """Several workloads' results as one: counts summed, metrics prefixed."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m
                    for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }
