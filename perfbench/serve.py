"""The serve workloads: ``repro serve`` under a closed loop of forecasts.

The benchmark process trains and saves a `small` TS3Net checkpoint with
a fixed seed, boots ``repro serve`` (one process, or ``--workers 2``)
several times to time set-up, and drives the last boot with keep-alive
connections (one on ``serve_cluster``, two on ``serve_single``), each
sending ``POST /v1/forecast`` as soon as its previous reply arrives (a
traced run splits this load into an untraced and a traced phase).
Requests carry ETTh1 test windows in order, from a start offset drawn
from the seed.  After the load it closes the connections, stops the
server, and checks every reply against a model rebuilt here from the
same checkpoint.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    SRC, WORK, Spans, child_env, median, parse_exposition, percentile,
    series_total, session_pids, vm_hwm_mib,
)

sys.path.insert(0, str(SRC))

import numpy as np                                              # noqa: E402

from repro.autodiff import Tensor, no_grad, precision           # noqa: E402
from repro.baselines import build_model                         # noqa: E402
from repro.data.dataset import ForecastWindows, load_dataset    # noqa: E402
from repro.nn import load_checkpoint, peek_metadata, save_checkpoint  # noqa: E402
from repro.tasks import (                                       # noqa: E402
    ForecastTask, TrainConfig, rebuild_from_metadata, run_task,
)
from repro.utils import set_seed                                # noqa: E402

DATASET, N_STEPS, DATA_SEED = "ETTh1", 2000, 0
SEQ_LEN, PRED_LEN = 48, 24
#: The served model is the same in every run; the seed picks the traffic.
MODEL_SEED = 0
CKPT_TASK = ForecastTask(seq_len=SEQ_LEN, pred_len=PRED_LEN, batch_size=16,
                         max_train_batches=20, max_eval_batches=5,
                         seed=MODEL_SEED)
CKPT_TRAIN = TrainConfig(epochs=1, lr=2e-3)
#: Server workers and client connections per workload.  One connection
#: on the cluster: with two, the clients, the front end and both workers
#: keep both cores of a 2-CPU host busy and the latency tail follows the
#: scheduler (see README.md, "Workloads").
WORKLOADS = {"serve_single": (1, 2), "serve_cluster": (2, 1)}
#: Boots per run; set-up time is their median.  The last one takes load.
BOOTS = 5
#: Requests per connection before timing starts (checked and counted).
WARMUP = 5
BOOT_TIMEOUT_S = 20.0
#: How long a server may take to exit after SIGTERM before the run fails.
DRAIN_TIMEOUT_S = 10.0
#: Windows the in-process forward and batch_signature timings use.
PROBE_WINDOWS = 40
#: Seconds per slice of the load phase; the end-to-end figures come from
#: the fastest quarter of the slices.
SLICE_S = 2.0

_ADDRESS = re.compile(r"serving on (http://[0-9.]+:\d+)")


class Server:
    """One ``repro serve`` process tree, in its own session."""

    def __init__(self, ckpt: Path, workers: int, log: Path):
        cmd = [sys.executable, "-m", "repro", "serve", "--checkpoint",
               str(ckpt), "--port", "0"]
        if workers > 1:
            cmd += ["--workers", str(workers)]
        self.log = log
        self._log_fh = open(log, "w")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=child_env(), stdout=self._log_fh,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self.host = ""
        self.port = 0

    def wait_healthy(self) -> float:
        """Seconds from launch to the first ``/healthz`` 200."""
        deadline = self.launched + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during boot; see {self.log}")
            if not self.port:
                match = _ADDRESS.search(self.log.read_text())
                if match:
                    self.host, port = match.group(1)[7:].split(":")
                    self.port = int(port)
            if self.port and self._healthz():
                return time.perf_counter() - self.launched
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy in {BOOT_TIMEOUT_S}s")

    def _healthz(self) -> bool:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def scrape(self) -> Dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            return parse_exposition(conn.getresponse().read().decode())
        finally:
            conn.close()

    def peak_rss_mib(self) -> float:
        """Peak RSS summed over every process of the server's session."""
        return sum(vm_hwm_mib(pid) for pid in session_pids(self.proc.pid))

    def stop(self) -> bool:
        """SIGTERM, bounded wait; False (and SIGKILL) if it did not exit.

        Callers close their client connections first: a single-process
        server does not exit while an idle keep-alive connection is open.
        """
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"still running {DRAIN_TIMEOUT_S:.0f} s after "
                            "SIGTERM")
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while session_pids(self.proc.pid):
            if time.perf_counter() > deadline:
                problems.append(f"{len(session_pids(self.proc.pid))} "
                                "process(es) of its session killed")
                os.killpg(self.proc.pid, signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.02)
        self.proc.wait()
        self._log_fh.close()
        if self.proc.returncode != 0:
            problems.append(f"exit code {self.proc.returncode}")
        if problems:
            tail = self.log.read_text()[-2000:]
            print(f"server did not stop cleanly: {'; '.join(problems)}; "
                  f"its log ends:\n{tail}", file=sys.stderr)
        return not problems


class Traffic:
    """Window indices in order from a seeded offset, shared by clients."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.next = int(np.random.default_rng(seed).integers(n))
        self.lock = threading.Lock()

    def take(self) -> int:
        with self.lock:
            idx = self.next
            self.next = (idx + 1) % self.n
        return idx


def client_loop(host: str, port: int, bodies: List[bytes], traffic: Traffic,
                warmup: int, deadline: float, out: List[tuple],
                record: Optional[Callable[[tuple], None]] = None) -> None:
    """Closed loop on one keep-alive connection until ``deadline``.

    Appends ``(window, start, end, status, body, timed)`` per request and,
    in a traced phase, hands each one to ``record`` as it completes.
    """
    conn = http.client.HTTPConnection(host, port, timeout=30)
    headers = {"Content-Type": "application/json"}
    sent = 0
    try:
        while sent < warmup or time.perf_counter() < deadline:
            idx = traffic.take()
            t0 = time.perf_counter()
            try:
                conn.request("POST", "/v1/forecast", bodies[idx], headers)
                resp = conn.getresponse()
                status, body = resp.status, resp.read()
            except (OSError, http.client.HTTPException):
                conn.close()
                status, body = 0, b""
            out.append((idx, t0, time.perf_counter(), status, body,
                        sent >= warmup))
            if record is not None:
                record(out[-1])
            sent += 1
    finally:
        conn.close()


def drive(server: Server, clients: int, bodies: List[bytes],
          traffic: Traffic, warmup: int, seconds: float,
          spans: Optional[Spans] = None) -> List[tuple]:
    """One load phase of ``clients`` closed loops; every request's record.

    With ``spans`` each request is recorded as a span when it completes.
    """
    lock = threading.Lock()

    def recorder(conn_id: int):
        def record(rec: tuple) -> None:
            with lock:
                spans.add("client.request", rec[1], rec[2], conn=conn_id,
                          window=rec[0], status=rec[3], timed=rec[5])
        return record if spans is not None else None

    per_client: List[List[tuple]] = [[] for _ in range(clients)]
    deadline = time.perf_counter() + seconds
    threads = [threading.Thread(
        target=client_loop, args=(server.host, server.port, bodies, traffic,
                                  warmup, deadline, out, recorder(conn_id)))
        for conn_id, out in enumerate(per_client)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [rec for out in per_client for rec in out]


def make_checkpoint(path: Path, split) -> None:
    """Train the served model briefly (fixed seed) and save it."""
    set_seed(MODEL_SEED)
    model = build_model("TS3Net", seq_len=SEQ_LEN, pred_len=PRED_LEN,
                        c_in=split.train.shape[1], task="forecast",
                        preset="tiny")
    run_task("forecast", model, split, CKPT_TASK, CKPT_TRAIN)
    save_checkpoint(model, str(path), metadata={
        "model": "TS3Net", "dataset": DATASET, "task": "forecast",
        "seq_len": SEQ_LEN, "pred_len": PRED_LEN,
        "c_in": int(split.train.shape[1]), "preset": "tiny"})


#: Failure reason for a reply that differs from the single forward.
#: Counted as a failed operation like any other; on ``serve_single`` it
#: happens whenever the micro-batcher stacks windows whose periods differ
#: (see README.md, "Faults found").
MISMATCH = "differs from the single forward"


def check_responses(responses: List[tuple], reference,
                    shape: tuple) -> tuple:
    """Each response's forecast (None if it fails) and the failure counts.

    A reply passes if it is a 200 carrying a finite ``shape`` forecast
    that equals the single forward ``reference(window)`` bit for bit, with
    the same bytes as every other such reply for its window.
    """
    exact: Dict[int, bytes] = {}
    # Equal bytes for the same window get the same verdict: parse once.
    verdicts: Dict[tuple, tuple] = {}
    preds: List[Optional[np.ndarray]] = []
    failures: Counter = Counter()
    for idx, _, _, status, body, _ in responses:
        if status != 200:
            pred, why = None, f"status {status}"
        else:
            key = (idx, body)
            if key not in verdicts:
                verdicts[key] = _check_body(body, reference(idx), shape)
            pred, why = verdicts[key]
            if why is None and exact.setdefault(idx, body) != body:
                why = "bytes differ from another reply for its window"
        if why:
            failures[why] += 1
            pred = None
        preds.append(pred)
    return preds, failures


def _check_body(body: bytes, expected: np.ndarray, shape: tuple) -> tuple:
    pred = np.asarray(json.loads(body)["prediction"], dtype=np.float64)
    if pred.shape != shape or not np.isfinite(pred).all():
        return pred, "not a finite forecast of the right shape"
    if not np.array_equal(pred, expected):
        return pred, MISMATCH
    return pred, None


def inference_timings(model, windows: np.ndarray) -> Dict[str, float]:
    """Median no-grad forward at batch 1 and 2, and ``batch_signature``."""
    b1, b2, sig = [], [], []
    with no_grad(), precision(np.float64):
        for w in windows:
            t0 = time.perf_counter()
            model(Tensor(w[None]))
            b1.append(time.perf_counter() - t0)
        for i in range(0, len(windows) - 1, 2):
            t0 = time.perf_counter()
            model(Tensor(windows[i:i + 2]))
            b2.append(time.perf_counter() - t0)
        for w in windows:
            t0 = time.perf_counter()
            model.batch_signature(w)
            sig.append(time.perf_counter() - t0)
    return {"core.forward_b1_ms": median(b1) * 1e3,
            "core.forward_b2_ms": median(b2) * 1e3,
            "core.batch_signature_ms": median(sig) * 1e3}


def fastest_slices(timed: List[tuple], start: float,
                   phase: float) -> Tuple[List[float], float]:
    """Latencies (ms) of the requests in the fastest slices, and their rate.

    The load phase is cut into whole ``SLICE_S`` slices; the fastest
    quarter of them, those that completed the most requests, is kept.
    The host's other tenants take CPU time from this machine in spells
    (``steal`` in ``/proc/stat``), and a request that crosses three
    processes in ~12 ms is hit hard: p90 went from ~13 ms to ~25 ms in
    slices where an eighth of the CPU time was stolen.  The fastest
    slices are the least disturbed (their steal share is the run's
    lowest), while a slower program slows every slice, the fastest too.
    """
    slices: List[List[float]] = [[] for _ in range(
        max(1, int(phase / SLICE_S)))]
    for rec in timed:
        i = int((rec[2] - start) / SLICE_S)
        if i < len(slices):
            slices[i].append((rec[2] - rec[1]) * 1e3)
    fast = sorted(slices, key=len, reverse=True)[:max(1, len(slices) // 4)]
    return ([lat for lats in fast for lat in lats],
            sum(map(len, fast)) / (len(fast) * SLICE_S))


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workers, clients = WORKLOADS[workload]
    # One CPU for the clients and the whole server tree (inherited by the
    # client threads and the server's processes).  Spread over two CPUs, a
    # request's hops can each wait for the other CPU to be woken, and
    # while the host's other tenants are busy that wait grows: in ten
    # paired 12 s serve_cluster runs in such an hour, p50 was lower pinned
    # in 9, with a median of 13.6 ms against 16.0 ms.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _run_serve(work, workers, clients, seed, seconds, trace)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work, ignore_errors=True)


def _run_serve(work: Path, workers: int, clients: int, seed: int,
               seconds: float, trace: bool) -> dict:
    spans = Spans()
    split = load_dataset(DATASET, n_steps=N_STEPS, seed=DATA_SEED)
    windows = ForecastWindows(split.test, SEQ_LEN, PRED_LEN)
    xs = np.stack([windows[i][0] for i in range(len(windows))])
    ys = np.stack([windows[i][1] for i in range(len(windows))])
    bodies = [json.dumps({"window": x.tolist()}).encode() for x in xs]
    ckpt = work / "ts3net.npz"
    make_checkpoint(ckpt, split)

    setups, clean = [], True
    for boot in range(BOOTS):
        server = Server(ckpt, workers, work / f"server-{boot}.log")
        try:
            setups.append(server.wait_healthy())
        except BaseException:
            server.stop()
            raise
        spans.add("server.boot", server.launched,
                  server.launched + setups[-1], workers=workers)
        if boot < BOOTS - 1:
            clean &= server.stop()

    # A traced run splits the load: an untraced phase, then a traced one
    # (spans recorded per request, /metrics scraped at its edges), so the
    # tracing overhead is measured against untraced load on the same server.
    traffic = Traffic(len(bodies), seed)
    try:
        if trace:
            plain = drive(server, clients, bodies, traffic, WARMUP,
                          seconds / 2)
            t0 = time.perf_counter()
            before = server.scrape()
            spans.add("metrics.scrape", t0, time.perf_counter())
            traced = drive(server, clients, bodies, traffic, 0, seconds / 2,
                           spans)
            t0 = time.perf_counter()
            after = server.scrape()
            spans.add("metrics.scrape", t0, time.perf_counter())
            responses = plain + traced
        else:
            responses = drive(server, clients, bodies, traffic, WARMUP,
                              seconds)
        peak_rss = server.peak_rss_mib()
    finally:
        # The client connections are closed by now (client_loop's finally).
        clean &= server.stop()

    meta = peek_metadata(str(ckpt))
    model = rebuild_from_metadata(meta)
    load_checkpoint(model, str(ckpt))
    model.eval()
    cache: Dict[int, np.ndarray] = {}

    def reference(idx: int) -> np.ndarray:
        if idx not in cache:
            with no_grad(), precision(np.float64):
                cache[idx] = model(Tensor(xs[idx][None])).data[0]
        return cache[idx]

    with spans.span("check.responses", responses=len(responses)):
        preds, failures = check_responses(responses, reference, ys.shape[1:])
    good = [(r, p) for r, p in zip(responses, preds) if p is not None]
    failed = len(responses) - len(good)
    mismatches = failures[MISMATCH]
    for why, count in failures.items():
        print(f"{count} of {len(responses)} replies: {why}", file=sys.stderr)

    timed = [r for r, _ in good if r[5]]
    phase_start = min(r[1] for r in timed)
    phase = max(r[2] for r in timed) - phase_start
    fast, rate = fastest_slices(timed, phase_start, phase)
    sq = [float(np.mean((p - ys[r[0]]) ** 2)) for r, p in good]
    e2e = {
        "setup_s": median(setups),
        "windows_per_s": rate,
        "test_mse": sum(sq) / len(sq),
        "peak_rss_mb": peak_rss,
        "latency_p50_ms": percentile(fast, 50),
    }
    # The tail is printed, not gated: see README.md, "End-to-end metrics".
    out = {"attempted": len(responses), "failed": failed, "clean": clean,
           "e2e": e2e, "samples": {"timed_requests": len(timed),
                                   "fastest_slices_requests": len(fast),
                                   "distinct_windows": len(cache),
                                   "latency_p90_ms": round(
                                       percentile(fast, 90), 3)}}
    if trace:
        delta = lambda name: (series_total(after, name)          # noqa: E731
                              - series_total(before, name))
        server_ms = (delta("repro_request_latency_seconds_sum")
                     / delta("repro_request_latency_seconds_count") * 1e3)
        passed = {id(r) for r, _ in good}
        mean_ms = lambda recs: 1e3 * statistics.mean(            # noqa: E731
            r[2] - r[1] for r in recs if id(r) in passed)
        traced_ms = mean_ms(traced)
        layer = {
            "serving.server_ms": server_ms,
            # The scrape delta covers exactly the traced phase's requests.
            "serving.outside_server_ms": traced_ms - server_ms,
            "serving.batch_size_mean": (delta("repro_batch_size_sum")
                                        / delta("repro_batch_size_count")),
            "serving.batch_mismatches": mismatches,
            "serving.cluster.proxy_retries": delta(
                "repro_frontend_proxy_retries_total"),
            "serving.cluster.worker_restarts": series_total(
                after, "repro_cluster_worker_restarts_total"),
            "trace.overhead_pct": 100.0 * (traced_ms / mean_ms(
                r for r in plain if r[5]) - 1.0),
        }
        with spans.span("core.inference_timings"):
            layer.update(inference_timings(model, xs[:PROBE_WINDOWS]))
        out["layer"] = layer
        out["spans"] = spans
    return out
