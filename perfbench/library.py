"""The in-process workloads: ``near_tau``, ``smooth_mix`` and ``svm_poly``.

Each workload is a list of :class:`Stream` s — an aggregator plus the
query batches replayed through it with ``backend="auto"``.  One measured
*round* takes one batch and issues its queries three ways:

* **batched** — the whole batch in one ``*_many_results`` call
  (``query_qps``: queries per second spent inside those calls);
* **pipelined** — the batch cut into calls of :data:`PIPELINE_DEPTH`
  queries, the in-process twin of a closed loop with that many requests
  outstanding (``pipelined_qps``; every query's latency is its call's);
* **serial** — the first ``serial_per_round`` queries one per call, one
  outstanding; the round's sample is their mean latency.

Latency metrics are taken per query class — (family, kind) — and
combined by geometric mean over classes.  ``smooth_mix`` mixes five
classes whose latencies differ by up to 5x; a percentile of the pooled
sample would fall between their modes and jump with the classes'
proportions.  The pipelined percentiles are over every call of the
class in the run (hundreds of calls, so the 99th percentile is not one
stalled call).  Single TKAQ queries are bimodal (about half are decided
at the root in a fraction of a millisecond, the rest refine for tens),
so a serial sample is a round's mean rather than one query, and
``serial_p50_ms`` is the median of those round samples.

Latencies are the process's CPU time over the call
(``time.process_time``); the throughputs ``query_qps`` and
``pipelined_qps`` are wall time.  The engine answers a call on this
thread without blocking, so its CPU time is its latency on a core of its
own.  Wall time also counts the time the virtual machine's host takes the
core away (steal time): calls of 8 that used 41 ms of CPU took up to
90 ms of wall time, and the 99th percentile measured the host more than
the engine.  A change that moved query work out of this process would
no longer be counted by these latencies; the wall-time throughputs
would still show it.

Rounds cycle over the batches of every stream, interleaved, until the
run's seconds are spent; a round is never cut short.  Every answer of
every call is checked against :mod:`oracle`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from spans import Recorder, engine_metrics, install

#: queries per call in the pipelined phase: the closed-loop depth of
#: ``serve_zipf``
PIPELINE_DEPTH = 8
#: how often a run builds its inputs; setup_s is the median
SETUP_REPEATS = 3


@dataclass
class Batch:
    kind: str              # "tkaq" | "ekaq"
    queries: np.ndarray
    param: np.ndarray      # per-query tau or eps
    F: np.ndarray | None = None
    margin: np.ndarray | None = None


@dataclass
class Stream:
    name: str
    agg: object
    kernel: object
    points: np.ndarray
    weights: np.ndarray
    batches: list = field(default_factory=list)


# ----------------------------------------------------------------------
# set-up: one function per workload, every step inside a named span
# ----------------------------------------------------------------------

def _suite_stream(rec: Recorder, family: str, seed: int) -> Stream:
    """One standard-suite family at full scale.

    The point set is the suite's own (its pinned spec seed); ``seed``
    offsets only the seed of the query stream drawn over it, so runs with
    different seeds measure the same data under different queries.
    """
    from repro.workloads import build_workload, standard_suite

    spec = next(s for s in standard_suite(1.0) if s.family == family)
    wl = rec.call("workloads", "build_workload", build_workload, (spec,), {})
    rec.call("index", "kdtree", wl.tree, (), {})
    agg = wl.aggregator(coreset=True)
    rec.call("sketch", "build", agg.coreset_backend, (), {})
    queries = dataclasses.replace(
        wl, spec=dataclasses.replace(spec, seed=spec.seed + seed))
    raw = rec.call("workloads", "batches", lambda: list(queries.batches()),
                   (), {})
    batches = [Batch(b.kind, b.queries, np.asarray(
        b.tau if b.kind == "tkaq" else b.eps, dtype=np.float64)) for b in raw]
    return Stream(family, agg, wl.kernel, wl.points, wl.weights, batches)


def setup_near_tau(rec: Recorder, seed: int) -> list[Stream]:
    return [_suite_stream(rec, "adversarial", seed)]


def setup_smooth_mix(rec: Recorder, seed: int) -> list[Stream]:
    return [_suite_stream(rec, f, seed)
            for f in ("drift", "embedding", "mixed_tenant")]


#: svm_poly inputs: ijcnn1 mirror, rescaled to [-1, 1]^d (paper Sec. V-F)
SVM_SIZE = 4000
SVM_C = 0.3
SVM_BATCHES = 8
SVM_BATCH_SIZE = 256


def setup_svm_poly(rec: Recorder, seed: int) -> list[Stream]:
    from repro.core import KernelAggregator, PolynomialKernel
    from repro.datasets.registry import load_dataset
    from repro.index import KDTree
    from repro.svm import SVC, MinMaxScaler

    def inputs():
        # one fixed model: the seed draws only the queries
        ds = load_dataset("ijcnn1", size=SVM_SIZE, seed=0)
        X = MinMaxScaler((-1.0, 1.0)).fit_transform(ds.points)
        return X, ds.labels

    X, y = rec.call("workloads", "ijcnn1", inputs, (), {})
    kernel = PolynomialKernel(gamma=1.0 / X.shape[1], coef0=0.0, degree=3)
    model = SVC(C=SVM_C, kernel=kernel)
    rec.call("svm", "fit", model.fit, (X, y), {})
    sv, w, rho = model.to_kaq()
    tree = rec.call("index", "kdtree", KDTree, (sv,),
                    {"weights": w, "leaf_capacity": 40})
    agg = KernelAggregator(tree, kernel)
    rng = np.random.default_rng([seed, 7])
    idx = rng.choice(X.shape[0], SVM_BATCHES * SVM_BATCH_SIZE, replace=False)
    batches = [
        Batch("tkaq", X[idx[i:i + SVM_BATCH_SIZE]],
              np.full(SVM_BATCH_SIZE, rho))
        for i in range(0, idx.size, SVM_BATCH_SIZE)
    ]
    return [Stream("svm_poly", agg, kernel, sv, w, batches)]


WORKLOADS = {
    # name: (set-up, serial queries per round)
    "near_tau": (setup_near_tau, 4),
    "smooth_mix": (setup_smooth_mix, 8),
    "svm_poly": (setup_svm_poly, 16),
}

SETUP_LAYERS = ("workloads", "svm", "index", "sketch")


def setup(name: str, seed: int):
    """Build the inputs ``SETUP_REPEATS`` times; keep the last build.

    Returns ``(streams, setup seconds per build, per-layer set-up
    seconds of the last build)``.
    """
    build, _ = WORKLOADS[name]
    times = []
    for _ in range(SETUP_REPEATS):
        rec = Recorder()
        t0 = time.perf_counter()
        streams = build(rec, seed)
        times.append(time.perf_counter() - t0)
    layer = rec.self_times()
    for s in streams:
        for b in s.batches:
            b.F, b.margin = oracle.reference(s.kernel, s.points, s.weights,
                                             b.queries)
    return streams, times, {f"{k}.build_s" if k != "svm" else "svm.fit_s":
                            layer.get(k, 0.0) for k in SETUP_LAYERS}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

@dataclass
class Tally:
    batched_q: int = 0
    batched_s: float = 0.0
    pipe_q: int = 0
    pipe_s: float = 0.0
    #: per query class (family, kind): every pipelined call's latency
    #: (process CPU seconds), s
    pipe_lat: dict = field(default_factory=dict)
    #: per query class: one serial sample per round (CPU seconds), s
    serial_lat: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def _call(agg, kind, Q, param):
    if kind == "tkaq":
        return agg.tkaq_many_results(Q, param, backend="auto")
    return agg.ekaq_many_results(Q, param, backend="auto")


def _issue(stream, b: Batch, sl: slice, tally: Tally, check: oracle.Check):
    """One ``*_many_results`` call over ``b.queries[sl]``.

    Returns ``(wall seconds, process CPU seconds)``, or None if it failed.
    """
    Q, param = b.queries[sl], b.param[sl]
    tally.attempted += Q.shape[0]
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        res = _call(stream.agg, b.kind, Q, param)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        tally.failed += Q.shape[0]
        tally.errors.append(f"{type(exc).__name__}: {exc}")
        return None
    dt = (time.perf_counter() - t0, time.process_time() - c0)
    F, margin = b.F[sl], b.margin[sl]
    if b.kind == "tkaq":
        check.tkaq(F, margin, param, res.answers, res.lower, res.upper)
    else:
        check.ekaq(F, margin, param, res.estimates, res.lower, res.upper)
    return dt


def _round(stream, b: Batch, serial: int, tally: Tally, check):
    n = b.queries.shape[0]
    cls = (stream.name, b.kind)
    dt = _issue(stream, b, slice(0, n), tally, check)
    if dt is not None:
        tally.batched_q += n
        tally.batched_s += dt[0]
    lat = tally.pipe_lat.setdefault(cls, [])
    for s in range(0, n, PIPELINE_DEPTH):
        sl = slice(s, min(n, s + PIPELINE_DEPTH))
        dt = _issue(stream, b, sl, tally, check)
        if dt is not None:
            tally.pipe_q += sl.stop - sl.start
            tally.pipe_s += dt[0]
            lat.append(dt[1])
    dts = [_issue(stream, b, slice(i, i + 1), tally, check)
           for i in range(min(serial, n))]
    dts = [dt[1] for dt in dts if dt is not None]
    if dts:
        tally.serial_lat.setdefault(cls, []).append(sum(dts) / len(dts))


def _schedule(streams):
    """Batches of every stream, interleaved: s0b0, s1b0, s2b0, s0b1, ..."""
    out = []
    for i in range(max(len(s.batches) for s in streams)):
        out.extend((s, s.batches[i]) for s in streams if i < len(s.batches))
    return out


def measure(name: str, streams, seconds: float, traced: bool,
            check: oracle.Check):
    """Run whole rounds for ``seconds``; returns ``(tally, metrics)``.

    Untraced, the metrics are the end-to-end ones.  Traced, every round is
    run twice back to back — once bare, once with the layer wrappers
    installed, alternating which goes first — and the metrics are the
    per-layer ones plus ``obs.trace_overhead`` (traced over bare seconds
    of the same rounds) and ``uncovered_share``.
    """
    _, serial = WORKLOADS[name]
    ops = _schedule(streams)
    tally = Tally()
    rec = Recorder()
    bare_s = traced_s = 0.0
    windows = []
    start = time.perf_counter()
    r = 0
    while True:
        stream, b = ops[r % len(ops)]
        if not traced:
            _round(stream, b, serial, tally, check)
        else:
            for on in ((False, True) if r % 2 == 0 else (True, False)):
                uninstall = install(rec) if on else None
                t0 = time.perf_counter()
                try:
                    _round(stream, b, serial, tally, check)
                finally:
                    t1 = time.perf_counter()
                    if uninstall is not None:
                        uninstall()
                if on:
                    traced_s += t1 - t0
                    windows.append((t0, t1))
                else:
                    bare_s += t1 - t0
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    if not traced:
        return tally, end_to_end(tally)
    m = engine_metrics(rec)
    m["obs.trace_overhead"] = traced_s / bare_s if bare_s else 0.0
    m["uncovered_share"] = 1.0 - rec.covered(windows) / traced_s
    return tally, m


def class_mean(samples: dict, q: float) -> float:
    """Geometric mean over query classes of each class's ``q``-th
    percentile, in ms."""
    per = [np.percentile(v, q) * 1e3 for v in samples.values() if v]
    if not per:
        return 0.0
    return float(np.exp(np.mean(np.log(per))))


def end_to_end(t: Tally) -> dict[str, float]:
    return {
        "query_qps": t.batched_q / t.batched_s if t.batched_s else 0.0,
        "serial_p50_ms": class_mean(t.serial_lat, 50),
        "pipelined_qps": t.pipe_q / t.pipe_s if t.pipe_s else 0.0,
        "pipelined_p50_ms": class_mean(t.pipe_lat, 50),
        "pipelined_p99_ms": class_mean(t.pipe_lat, 99),
    }
