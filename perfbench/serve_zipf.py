"""The ``serve_zipf`` workload: a live cached server and a one-connection client.

The server runs in its own process (``serve_host.py``) over the standard
suite's ``mixed_tenant`` points with the certified answer cache on.  This
process is the client: one TCP connection, newline-delimited JSON.

Each request carries its own kind, tau and eps from the ``mixed_tenant``
tenant mix.  The stream (see :class:`Stream`) is Zipf-skewed over a hot
set: a request repeats a hot key, perturbs one slightly
(near-duplicate), or is fresh.  One measured *round* sends, continuing
the same stream:

* **serial** — :data:`SERIAL` requests, one outstanding
  (``serial_p50_ms``: a round's mean latency, as in the library
  workloads);
* **pipelined** — :data:`PIPELINED` requests through a closed loop with
  :data:`DEPTH` outstanding (``pipelined_qps``, ``pipelined_p50_ms``,
  ``pipelined_p99_ms``);
* **burst** — :data:`BURST` requests written at once, a whole family
  batch outstanding (``query_qps``: requests answered per second).

Each metric but the 99th percentile is the median over rounds of the
round's figure, so a stretch of a run in which the shared host is slow
moves it only if it covers half the rounds.

Before the first round every hot key is requested once, as one burst, so
the cache starts warm and its hit share holds steady through the run.
Rounds repeat until the run's seconds are spent.  After the last round
every answer, warm-up included, is checked against :mod:`oracle`; an
error response is a failed operation.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from spans import Recorder, engine_metrics

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: stream make-up.  The hot traffic is the Zipf phase of
#: ``benchmarks/bench_serve.py``: its pool size, exponent, near-duplicate
#: share and calibrated near-duplicate noise.
HOT = 256             #: hot pool size
ZIPF_S = 1.1          #: Zipf exponent over hot-pool ranks
NEAR_EVERY = 4        #: every 4th hot request is a near-duplicate
EPS_Z = 0.1           #: the eKAQ tolerance the noise is calibrated to
#: one request in FRESH_OF is hot, the others are fresh: 3/4 fresh keeps
#: the median request an evaluated one (see README.md)
FRESH_OF = 4
#: round make-up.  SERIAL holds 36 fresh requests, three whole periods of
#: the tenant round-robin, so every round's serial phase asks the same mix
SERIAL = 48
PIPELINED = 128
#: closed-loop depth: at 32 the latencies split into convoys and their
#: median moved 40% between seeds; at 8 the small-batch fault still shows
DEPTH = 8
BURST = 256
SETUP_REPEATS = 3
START_TIMEOUT = 120.0


class Stream:
    """Deterministic request generator over the served points.

    A fresh request is drawn the way the ``mixed_tenant`` family draws its
    own queries: a data point plus 1% feature-std jitter, a tenant, and
    that tenant's kind and tau or eps.  Tenants follow the mix's weights in
    a fixed weighted round-robin (period 12 for the weights 3 : 1 : 1.5 :
    0.5), so every seed asks the same tenants in the same order and only
    the points differ.  The hot pool is :data:`HOT` such requests.
    """

    def __init__(self, wl, seed: int):
        from repro.core import global_lipschitz
        from repro.workloads.families import _family_params

        self.rng = np.random.default_rng([seed, 0x5E7E])
        tenants = _family_params(wl.spec)["tenants"]
        w = np.array([float(t.get("weight", 1.0)) for t in tenants])
        self.tenant_p = w / w.sum()
        self.tenants = tenants
        self.points = wl.points
        self.std = wl.points.std(axis=0)
        self.mu, self.sigma = wl.probe_mu, wl.probe_sigma
        self.d = wl.points.shape[1]
        # the round-robin starts with the hot keys, so every seed puts the
        # same tenant on each popularity rank (which tenant holds rank 1
        # would otherwise swing the cache's hit share)
        self.credit = np.zeros(len(tenants))
        self.hot = [self._fresh() for _ in range(HOT)]
        # near-duplicate noise as in bench_serve: the transfer widening
        # W * L * ||dq|| stays 2% of the eKAQ slack EPS_Z * F
        F, _ = oracle.reference(wl.kernel, wl.points, wl.weights,
                                np.array([q for _, q, _ in self.hot[:64]]))
        mass = float(np.abs(wl.weights).sum()) * global_lipschitz(wl.kernel)
        self.near_sigma = (0.02 * EPS_Z * float(np.median(F))
                           / (mass * np.sqrt(self.d)))
        self.sent = 0
        self.hot_sent = 0

    def _fresh(self):
        i = int(self.rng.integers(0, self.points.shape[0]))
        q = self.points[i] + 0.01 * self.std * self.rng.standard_normal(self.d)
        self.credit += self.tenant_p
        k = int(np.argmax(self.credit))
        self.credit[k] -= 1.0
        t = self.tenants[k]
        if t["kind"] == "tkaq":
            param = self.mu + float(t.get("tau_sigma", 0.0)) * self.sigma
        else:
            param = float(t.get("eps", 0.1))
        return t["kind"], q, float(param)

    def next(self):
        self.sent += 1
        if self.sent % FRESH_OF:
            return self._fresh()
        self.hot_sent += 1
        rank = int(self.rng.zipf(ZIPF_S))
        kind, q, param = self.hot[(rank - 1) % HOT]
        if self.hot_sent % NEAR_EVERY == 0:
            q = q + self.rng.normal(0.0, self.near_sigma, self.d)
        return kind, q, param


# ----------------------------------------------------------------------
# the host process
# ----------------------------------------------------------------------

class Host:
    """A running ``serve_host.py``; lines of its stdout are read on demand."""

    def __init__(self, spans: Path | None):
        cmd = [sys.executable, str(HERE / "serve_host.py")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.info = {}
        self._buf = b""

    def expect(self, prefix: str, timeout: float = START_TIMEOUT) -> str:
        """Wait for the host's next stdout line that starts with ``prefix``."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                if line.decode().startswith(prefix):
                    return line.decode()
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                break
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            self._buf += chunk
        raise RuntimeError(f"serve host: no {prefix!r} line "
                           f"(exit code {self.proc.poll()})")

    def listening(self) -> None:
        line = self.expect("PERFBENCH_LISTENING")
        self.info = {k: float(v) for k, v in
                     (kv.split("=") for kv in line.split()[1:])}

    def trace(self, on: bool) -> None:
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        self.expect(f"PERFBENCH_TRACE {'on' if on else 'off'}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------

class Conn:
    """One connection; requests are matched to responses by id."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.rfile = self.sock.makefile("rb")
        self.next_id = 0

    def line(self, kind, q, param) -> tuple[int, bytes]:
        rid = self.next_id
        self.next_id += 1
        key = "tau" if kind == "tkaq" else "eps"
        msg = {"op": kind, "id": rid, "q": q.tolist(), key: param}
        return rid, json.dumps(msg, separators=(",", ":")).encode() + b"\n"

    def recv(self) -> dict:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Log:
    """Every request sent, its response and client-observed latency."""

    def __init__(self):
        self.reqs: dict[int, tuple] = {}
        self.resp: dict[int, dict] = {}
        self.sent: dict[int, float] = {}
        self.lat: dict[int, float] = {}

    def send(self, conn: Conn, reqs) -> None:
        data = []
        for kind, q, param in reqs:
            rid, line = conn.line(kind, q, param)
            self.reqs[rid] = (kind, q, param)
            data.append(line)
            self.sent[rid] = time.perf_counter()
        conn.sock.sendall(b"".join(data))

    def recv(self, conn: Conn) -> int:
        r = conn.recv()
        rid = r.get("id")
        self.lat[rid] = time.perf_counter() - self.sent[rid]
        self.resp[rid] = r
        return rid


def _serial(conn, log, stream, n):
    ids = []
    for _ in range(n):
        log.send(conn, [stream.next()])
        ids.append(log.recv(conn))
    return ids


def _pipelined(conn, log, stream, n, depth):
    ids = []
    first = [stream.next() for _ in range(min(depth, n))]
    t0 = time.perf_counter()
    log.send(conn, first)
    sent = len(first)
    while len(ids) < n:
        ids.append(log.recv(conn))
        if sent < n:
            log.send(conn, [stream.next()])
            sent += 1
    return ids, time.perf_counter() - t0


def _round(conn, log, stream, acc):
    """One round; appends its samples (seconds, requests/s) to ``acc``."""
    ids = _serial(conn, log, stream, SERIAL)
    acc["serial"].append(float(np.mean([log.lat[i] for i in ids])))
    ids, dt = _pipelined(conn, log, stream, PIPELINED, DEPTH)
    acc["pipe"] += ids
    acc["pipe_p50"].append(float(np.median([log.lat[i] for i in ids])))
    acc["pipe_rate"].append(PIPELINED / dt)
    reqs = [stream.next() for _ in range(BURST)]
    _, dt = _pipelined(conn, log, _Fixed(reqs), BURST, BURST)
    acc["burst_rate"].append(BURST / dt)


class _Fixed:
    """A pre-drawn request list behind the stream interface."""

    def __init__(self, reqs):
        self._it = iter(reqs)

    def next(self):
        return next(self._it)


def _setup(seed: int, spans: Path | None):
    """Start a host and build the client's inputs.

    Returns ``(host, workload, stream, seconds until both were ready)``.
    """
    from serve_host import build

    t0 = time.perf_counter()
    host = Host(spans)
    try:
        wl = build()
        stream = Stream(wl, seed)
        host.listening()
    except BaseException:
        host.stop()
        raise
    return host, wl, stream, time.perf_counter() - t0


def run(seed: int, seconds: float, traced: bool, check: oracle.Check):
    """Measure ``serve_zipf``; returns ``(metrics, attempted, failed, errors)``."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-serve_zipf-{seed}-{os.getpid()}.jsonl" \
        if traced else None
    setup_times = []
    for i in range(SETUP_REPEATS):
        host, wl, stream, dt = _setup(seed, spans)
        setup_times.append(dt)
        if i < SETUP_REPEATS - 1:
            host.stop()
    log = Log()
    acc = {"serial": [], "pipe": [], "pipe_p50": [], "pipe_rate": [],
           "burst_rate": []}
    bare, traced_rounds, windows = [], [], []
    stats = {}
    try:
        conn = Conn(int(host.info["port"]))
        try:
            _pipelined(conn, log, _Fixed(stream.hot), HOT, HOT)
            start = time.perf_counter()
            r = 0
            while True:
                on = traced and r % 2 == 1
                if on:
                    host.trace(True)
                t0 = time.perf_counter()
                _round(conn, log, stream, acc)
                t1 = time.perf_counter()
                if on:
                    host.trace(False)
                    traced_rounds.append(t1 - t0)
                    windows.append((t0, t1))
                else:
                    bare.append(t1 - t0)
                r += 1
                if time.perf_counter() - start >= seconds and (
                        not traced or r % 2 == 0):
                    break
            conn.sock.sendall(b'{"op":"stats","id":"stats"}\n')
            stats = conn.recv()
        finally:
            conn.close()
    finally:
        host.stop()

    attempted, failed, errors = _check(log, wl, check)
    if not traced:
        metrics = _end_to_end(log, acc)
        metrics["setup_s"] = sorted(setup_times)[len(setup_times) // 2]
    else:
        rec = Recorder.load(spans)
        spans.unlink()
        metrics = _per_layer(rec, stats, host.info, windows)
        metrics["obs.trace_overhead"] = (
            float(np.mean(traced_rounds)) / float(np.mean(bare)))
    return metrics, attempted, failed, errors


def _check(log: Log, wl, check: oracle.Check):
    ids = sorted(log.reqs)
    failed, errors = 0, []
    by_kind: dict[str, list] = {"tkaq": [], "ekaq": []}
    for rid in ids:
        r = log.resp.get(rid)
        if r is None or not r.get("ok"):
            failed += 1
            errors.append(f"request {rid}: {r}")
            continue
        by_kind[log.reqs[rid][0]].append(rid)
    for kind, rids in by_kind.items():
        if not rids:
            continue
        Q = np.array([log.reqs[i][1] for i in rids])
        param = np.array([log.reqs[i][2] for i in rids])
        F, margin = oracle.reference(wl.kernel, wl.points, wl.weights, Q)
        resp = [log.resp[i] for i in rids]
        lower = np.array([r["lower"] for r in resp])
        upper = np.array([r["upper"] for r in resp])
        if kind == "tkaq":
            check.tkaq(F, margin, param, [r["answer"] for r in resp],
                       lower, upper)
        else:
            check.ekaq(F, margin, param, [r["estimate"] for r in resp],
                       lower, upper)
    return len(ids), failed, errors


def _end_to_end(log: Log, acc) -> dict[str, float]:
    """Medians over rounds, except the 99th percentile: it pools every
    closed-loop request of the run, since a round has only 128."""
    pipe = [log.lat[i] * 1e3 for i in acc["pipe"]]
    return {
        "query_qps": float(np.median(acc["burst_rate"])),
        "serial_p50_ms": 1e3 * float(np.median(acc["serial"])),
        "pipelined_qps": float(np.median(acc["pipe_rate"])),
        "pipelined_p50_ms": 1e3 * float(np.median(acc["pipe_p50"])),
        "pipelined_p99_ms": float(np.percentile(pipe, 99)),
    }


def _per_layer(rec: Recorder, stats: dict, info: dict, windows):
    m = engine_metrics(rec)
    c = rec.counts
    counters = stats.get("counters", {})
    hists = stats.get("histograms", {})

    def ms(name, q):
        v = hists.get(name, {}).get(q)
        return 1e3 * v if v is not None else 0.0

    hit = counters.get("cache.hit_total", 0)
    miss = counters.get("cache.miss_total", 0)
    window = sum(b - a for a, b in windows)
    m.update({
        "workloads.build_s": info.get("build_s", 0.0),
        "index.build_s": info.get("index_s", 0.0),
        "serve.start_s": info.get("start_s", 0.0),
        "cache.probe_s": rec.busy("probe") + rec.busy("lookup"),
        "cache.hit": hit, "cache.miss": miss,
        "cache.insert": counters.get("cache.insert_total", 0),
        "cache.warm_start": counters.get("cache.warm_start_total", 0),
        "cache.hit_share": hit / (hit + miss) if hit + miss else 0.0,
        "serve.decode_s": rec.busy("decode"),
        "serve.encode_s": rec.busy("encode"),
        "serve.eval_s": rec.busy("eval"),
        "serve.batches": c["serve.batches"],
        "serve.batch_size_mean": (c["serve.batch_rows"] / c["serve.batches"]
                                  if c["serve.batches"] else 0.0),
        "serve.batches_1req": c["serve.batches_1req"],
        "serve.eval_ms_1req": (1e3 * c["serve.eval_s_1req"]
                               / c["serve.batches_1req"]
                               if c["serve.batches_1req"] else 0.0),
        "serve.queue_delay_ms_p50": ms("serve.queue_delay_seconds", "p50"),
        "serve.queue_delay_ms_p99": ms("serve.queue_delay_seconds", "p99"),
        "serve.request_ms_p50": ms("serve.request_seconds", "p50"),
        "serve.request_ms_p99": ms("serve.request_seconds", "p99"),
        "serve.singleflight": counters.get("serve.singleflight_total", 0),
        "uncovered_share": 1.0 - rec.covered(windows) / window,
    })
    return m
