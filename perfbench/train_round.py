"""One training round, in its own process: fit, evaluate, check, report.

    PYTHONPATH=src python3 perfbench/train_round.py --model TS3Net --seed 7 [--trace]

Run by ``train.py``.  Builds the model at the `small` shape (B16, L48,
P24, 7 channels, `tiny` preset), fits it for a fixed budget through
``Trainer.fit`` (early stopping cannot trip), evaluates the test split,
runs the output checks, and prints one JSON object on its last stdout
line.

With ``--trace`` it also records, from this file and around calls into
the library's public functions, each train step's loader fetch, step
function (forward and loss), ``loss.backward()`` and ``optimizer.step()``,
plus the op and module breakdown of a ``GraphProfiler`` attached to the
model.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import sys
import time

import numpy as np

from repro.autodiff import GraphProfiler, Tensor, mse_loss, no_grad, precision
from repro.baselines.registry import build_model
from repro.data.dataset import DataLoader, ForecastWindows, load_dataset
from repro.tasks.forecasting import forecast_step
from repro.tasks.trainer import TrainConfig, Trainer
from repro.utils import set_seed

from common import MODULE_METRICS, OP_FAMILIES, Spans, rel_diff

DATASET = "ETTh1"
N_STEPS = 2000
#: The synthetic corpus is fixed; the round seed drives initialisation,
#: dropout and batch order.
DATA_SEED = 0
SEQ_LEN, PRED_LEN, BATCH = 48, 24, 16
EPOCHS, TRAIN_BATCHES, VAL_BATCHES = 2, 20, 5
LR = 2e-3
#: Central-difference step: 1e-4 balances truncation and round-off error.
#: At 1e-6 round-off alone passed rel 1e-6 on a direction nearly
#: orthogonal to the gradient (directional derivative 1.3e-5).
GRAD_EPS = 1e-4
GRAD_TOL = 1e-6
MSE_TOL = 1e-9


class TimedLoader:
    """Iterates a loader, timing each fetch and marking step bounds.

    A step runs from the start of its batch fetch to the start of the
    next fetch; the epoch's final (exhausted) fetch closes the last step.
    ``active`` is true while a train step is running.
    """

    def __init__(self, loader, on_epoch=None):
        self.loader = loader
        self.on_epoch = on_epoch      # callback(begin: bool)
        self.steps: list = []         # (fetch start, fetch end, step end)
        self.active = False

    def __iter__(self):
        it = iter(self.loader)
        if self.on_epoch:
            self.on_epoch(True)
        self.active = True
        t0 = time.perf_counter()
        for batch in it:
            t1 = time.perf_counter()
            yield batch
            t2 = time.perf_counter()
            self.steps.append((t0, t1, t2))
            t0 = t2
        # The exhausted fetch belongs to the last step.
        if self.steps:
            a, b, _ = self.steps[-1]
            t3 = time.perf_counter()
            self.steps[-1] = (a, b + t3 - t0, t3)
        self.active = False
        if self.on_epoch:
            self.on_epoch(False)


class TimedLoss:
    """Stands in for the step function's loss; times ``backward()``."""

    def __init__(self, loss, record):
        self._loss = loss
        self._record = record

    @property
    def data(self):
        return self._loss.data

    def backward(self):
        t0 = time.perf_counter()
        self._loss.backward()
        self._record((t0, time.perf_counter()))


def directional_grad_check(model, x: np.ndarray, y: np.ndarray,
                           seed: int) -> float:
    """Relative gap between a central difference and autodiff along ``d``.

    Eval mode (no dropout) and float64; ``d`` is a random unit direction
    over every parameter.
    """
    model.eval()
    params = model.parameters()
    rng = np.random.default_rng(seed)
    dirs = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    with precision(np.float64):
        model.zero_grad()
        loss = mse_loss(model(Tensor(x)), y)
        loss.backward()
        analytic = sum(float((p.grad * d).sum())
                       for p, d in zip(params, dirs) if p.grad is not None)
        model.zero_grad()

        def loss_at(step: float) -> float:
            saved = [p.data.copy() for p in params]
            for p, d in zip(params, dirs):
                p.data += step * d
            with no_grad():
                value = float(mse_loss(model(Tensor(x)), y).data)
            for p, s in zip(params, saved):
                p.data[...] = s
            return value

        numeric = (loss_at(GRAD_EPS) - loss_at(-GRAD_EPS)) / (2 * GRAD_EPS)
    return rel_diff(numeric, analytic)


class Tracer:
    """The traced round's instruments, all outside the library."""

    def __init__(self, model, trainer):
        self.profiler = GraphProfiler().attach(model).start()
        self.loader = None
        self.forward: list = []
        self.backward: list = []
        self.optim: list = []
        self.ops: dict = {}
        self.modules: dict = {}
        self._snap = None
        step = trainer.optimizer.step

        def traced_optim_step(*args, **kwargs):
            t0 = time.perf_counter()
            out = step(*args, **kwargs)
            if self.loader.active:
                self.optim.append((t0, time.perf_counter()))
            return out

        trainer.optimizer.step = traced_optim_step

    def wrap_step(self, step_fn):
        def traced_step(batch):
            t0 = time.perf_counter()
            loss, *rest = step_fn(batch)
            if not self.loader.active:
                return (loss, *rest)
            self.forward.append((t0, time.perf_counter()))
            return (TimedLoss(loss, self.backward.append), *rest)
        return traced_step

    def on_epoch(self, begin: bool) -> None:
        """Accumulate profiler deltas over train epochs only."""
        if begin:
            self._snap = (copy.deepcopy(self.profiler.ops),
                          copy.deepcopy(self.profiler.modules))
            return
        ops0, mods0 = self._snap
        for name, stats in self.profiler.ops.items():
            base = ops0.get(name, {})
            acc = self.ops.setdefault(name, {"calls": 0, "forward_s": 0.0,
                                             "backward_s": 0.0})
            for key in acc:
                acc[key] += stats[key] - base.get(key, 0)
        for label, stats in self.profiler.modules.items():
            cls = label.rsplit("(", 1)[1].rstrip(")")
            self.modules[cls] = (self.modules.get(cls, 0.0) + stats["seconds"]
                                 - mods0.get(label, {}).get("seconds", 0.0))

    def finish(self) -> tuple:
        """Per-step layer metrics and the step spans."""
        self.profiler.stop().detach()
        steps = self.loader.steps
        n = len(steps)
        total = lambda spans: sum(b - a for a, b in spans)  # noqa: E731
        sums = {
            "data.loader_ms": sum(b - a for a, b, _ in steps),
            "core.forward_ms": total(self.forward),
            "autodiff.backward_ms": total(self.backward),
            "optim.step_ms": total(self.optim),
        }
        wall = sum(c - a for a, _, c in steps)
        layer = {k: v * 1e3 / n for k, v in sums.items()}
        layer["train.step_ms"] = wall * 1e3 / n
        layer["trace.coverage_pct"] = 100.0 * sum(sums.values()) / wall
        fams = {f: [0.0, 0.0] for f in OP_FAMILIES}
        calls = 0
        for name, stats in self.ops.items():
            fam = fams[name if name in fams else "other"]
            fam[0] += stats["forward_s"]
            fam[1] += stats["backward_s"]
            calls += stats["calls"]
        for fam, (fwd, bwd) in fams.items():
            layer[f"autodiff.op.{fam}.fwd_ms"] = fwd * 1e3 / n
            layer[f"autodiff.op.{fam}.bwd_ms"] = bwd * 1e3 / n
        layer["autodiff.op_calls"] = calls / n
        layer["autodiff.saved_mib_peak"] = (
            self.profiler.peak_saved_bytes / 2 ** 20)
        for metric, classes in MODULE_METRICS.items():
            layer[metric] = sum(self.modules.get(c, 0.0)
                                for c in classes) * 1e3 / n
        spans = Spans()
        for (a, b, c), (d, e), (f, g), (h, i) in zip(
                steps, self.forward, self.backward, self.optim):
            step = spans.add("train.step", a, c)
            spans.add("data.loader", a, b, step)
            spans.add("core.forward", d, e, step)
            spans.add("autodiff.backward", f, g, step)
            spans.add("optim.step", h, i, step)
        return layer, spans.records


def run_round(model_name: str, seed: int, trace: bool) -> dict:
    set_seed(seed)
    split = load_dataset(DATASET, n_steps=N_STEPS, seed=DATA_SEED)
    model = build_model(model_name, seq_len=SEQ_LEN, pred_len=PRED_LEN,
                        c_in=split.train.shape[1], task="forecast",
                        preset="tiny")
    test_windows = ForecastWindows(split.test, SEQ_LEN, PRED_LEN)
    train = DataLoader(ForecastWindows(split.train, SEQ_LEN, PRED_LEN),
                       batch_size=BATCH, shuffle=True, seed=seed,
                       max_batches=TRAIN_BATCHES, reuse_buffers=True)
    val = DataLoader(ForecastWindows(split.val, SEQ_LEN, PRED_LEN),
                     batch_size=BATCH, max_batches=VAL_BATCHES,
                     reuse_buffers=True)
    test = DataLoader(test_windows, batch_size=BATCH)
    # patience > epochs: early stopping cannot end the fit early.
    trainer = Trainer(model, TrainConfig(epochs=EPOCHS, lr=LR,
                                         patience=EPOCHS + 1))
    step_fn = forecast_step(model)
    tracer = Tracer(model, trainer) if trace else None
    loader = TimedLoader(train, tracer.on_epoch if tracer else None)
    fit_step = step_fn
    if tracer:
        tracer.loader = loader
        fit_step = tracer.wrap_step(step_fn)

    fit_start = time.time()
    result = trainer.fit(loader, val, fit_step, task="forecast")
    layer = spans = None
    if tracer:
        layer, spans = tracer.finish()

    preds, truths = [], []

    def capturing_step(batch):
        out = step_fn(batch)
        preds.append(np.array(out[1]))
        truths.append(np.array(out[2]))
        return out

    test_mse, _ = trainer.evaluate(test, capturing_step)
    pred, truth = np.concatenate(preds), np.concatenate(truths)
    lookback = np.stack([test_windows[i][0]
                         for i in range(len(test_windows))])
    numpy_mse = float(np.mean((pred - truth) ** 2))
    window_mean = np.broadcast_to(lookback.mean(axis=1, keepdims=True),
                                  truth.shape)
    baseline_mse = float(np.mean((window_mean - truth) ** 2))
    losses = result.train_losses + result.val_losses
    xg, yg = train.windows[0]
    grad_rel = directional_grad_check(model, xg[None], yg[None], seed)

    checks = {
        "steps_run": len(loader.steps) == EPOCHS * TRAIN_BATCHES,
        "losses_finite": bool(np.all(np.isfinite(losses))),
        "loss_decreases": result.train_losses[-1] < result.train_losses[0],
        "numpy_mse_matches": rel_diff(numpy_mse, test_mse) <= MSE_TOL,
        "beats_window_mean": test_mse < baseline_mse,
        "grad_check": grad_rel <= GRAD_TOL,
    }
    return {
        "fit_start": fit_start,
        "train_seconds": result.train_seconds,
        "windows": len(loader.steps) * BATCH,
        "step_ms": [(c - a) * 1e3 for a, _, c in loader.steps],
        "test_mse": test_mse,
        "numpy_mse": numpy_mse,
        "baseline_mse": baseline_mse,
        "grad_rel": grad_rel,
        "train_losses": result.train_losses,
        "checks": checks,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": layer,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_round(args.model, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
