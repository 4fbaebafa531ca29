"""Spans around the calls into each engine layer, recorded from outside.

The engine is not modified: :func:`install` replaces the public entry
points of each layer with thin wrappers that open a span, call the
original and record what the call did (queries, rounds, points), and
returns a function that puts the originals back.  Untraced runs never
install anything.

A span is ``(id, layer, name, start, end, parent, ref)``: ``parent`` is
the innermost open span on the same thread, ``ref`` a batch or request
id.  Spans stay in memory until the run ends.  A layer's *self time* is
the time its outermost spans cover minus the time covered by spans of
other layers nested inside them; a call into a layer that is already
open on the thread (the coreset tier's fallback re-entering
``core.aggregator``, say, is a different layer and *is* recorded) only
counts as a call.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

#: phases the multiquery evaluator already times in its obs traces
MQ_PHASES = ("bounds", "leaves", "select", "terminate")


class Recorder:
    """In-memory span store plus per-layer counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, layer: str, name: str, fn, args, kwargs, ref=None):
        """Run ``fn`` inside a span; nested same-layer calls are not spans."""
        st = self._stack()
        if st and st[-1][1] == layer:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = st[-1][0] if st else 0
        st.append((sid, layer))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans.append((sid, layer, name, t0, t1, parent, ref))

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span time minus other layers' child spans."""
        child = defaultdict(float)
        for _, _, _, t0, t1, parent, _ in self.spans:
            if parent:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, layer, _, t0, t1, _, _ in self.spans:
            out[layer] += (t1 - t0) - child.get(sid, 0.0)
        return out

    def busy(self, name: str) -> float:
        """Total duration of the spans with this name."""
        return sum(t1 - t0 for _, _, n, t0, t1, _, _ in self.spans if n == name)

    def covered(self, windows) -> float:
        """Seconds of the ``(start, end)`` windows that some span covers."""
        iv = sorted((s[3], s[4]) for s in self.spans)
        merged = []
        for a, b in iv:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        total = 0.0
        for w0, w1 in windows:
            for a, b in merged:
                lo, hi = max(a, w0), min(b, w1)
                if hi > lo:
                    total += hi - lo
        return total

    def dump(self, path) -> None:
        """Write the spans as JSON lines and the counters as a last line."""
        with open(path, "w") as fh:
            for sid, layer, name, t0, t1, parent, ref in self.spans:
                fh.write(json.dumps({
                    "id": sid, "layer": layer, "name": name, "start": t0,
                    "end": t1, "parent": parent, "ref": ref}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    @classmethod
    def load(cls, path) -> "Recorder":
        rec = cls()
        with open(path) as fh:
            for line in fh:
                d = json.loads(line)
                if "counts" in d:
                    rec.counts.update(d["counts"])
                else:
                    rec.spans.append((d["id"], d["layer"], d["name"],
                                      d["start"], d["end"], d["parent"],
                                      d["ref"]))
        return rec


def _patch(undo: list, owner, attr: str, wrapper_factory) -> None:
    orig = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(orig)(wrapper_factory(orig)))
    undo.append((owner, attr, orig))


def install(rec: Recorder, serve: bool = False):
    """Wrap each layer's entry points; returns a function that unwraps them."""
    from repro.core.aggregator import KernelAggregator
    from repro.core.multiquery import MultiQueryAggregator
    from repro.native.driver import NativeRefiner
    from repro.obs import runtime as obs
    from repro.sketch.aggregator import CoresetAggregator

    undo: list = []

    def aggregator(orig):
        def w(self, queries, *a, **kw):
            rec.add("aggregator.calls")
            return rec.call("aggregator", orig.__name__, orig,
                            (self, queries) + a, kw)
        return w

    def exact(orig):
        def w(self, queries):
            rec.add("exact.queries", len(queries))
            return rec.call("exact", "exact_many", orig, (self, queries), {})
        return w

    def multiquery(orig):
        def w(self, queries, *a, **kw):
            # the evaluator's own obs phases: on for this call, unless the
            # caller already keeps obs on (the serve host does while tracing)
            own = not obs.is_enabled()
            if own:
                obs.enable(ring_capacity=8)
            try:
                res = rec.call("multiquery", orig.__name__, orig,
                               (self, queries) + a, kw)
                traces = [t for t in obs.recent_traces()
                          if t.backend == "multiquery"]
            finally:
                if own:
                    obs.disable()
            st = res.stats
            rec.add("multiquery.queries", st.n_queries)
            rec.add("multiquery.query_rounds", sum(st.active_counts))
            rec.add("multiquery.points", st.points_evaluated)
            rec.add("multiquery.point_total", st.n_queries * self.tree.n)
            if traces:
                for ph in MQ_PHASES:
                    rec.add(f"multiquery.{ph}_s",
                            traces[-1].phases.get(ph, 0.0))
            return res
        return w

    def sketch(orig):
        def w(self, queries, *a, **kw):
            s0, f0 = self.served_queries, self.fallback_queries
            res = rec.call("sketch", orig.__name__, orig,
                           (self, queries) + a, kw)
            rec.add("sketch.served", self.served_queries - s0)
            rec.add("sketch.fallback", self.fallback_queries - f0)
            return res
        return w

    def loop(orig):
        def w(self, q, *a, **kw):
            res = rec.call("loop", orig.__name__, orig, (self, q) + a, kw)
            rec.add("loop.queries")
            rec.add("loop.iterations", res.stats.iterations)
            rec.add("loop.points", res.stats.points_evaluated)
            rec.add("loop.point_total", self.tree.n)
            return res
        return w

    def native(orig):
        def w(self, q, q_sq, root_lb, root_ub, stop, spec, trace, stats,
              otrace):
            res = rec.call("native", "run", orig,
                           (self, q, q_sq, root_lb, root_ub, stop, spec,
                            trace, stats, otrace), {})
            rec.add("native.queries")
            rec.add("native.iterations", stats.iterations)
            rec.add("native.points", stats.points_evaluated)
            rec.add("native.point_total", self.tree.n)
            return res
        return w

    for name in ("tkaq_many_results", "ekaq_many_results",
                 "refine_many_results"):
        _patch(undo, KernelAggregator, name, aggregator)
        _patch(undo, MultiQueryAggregator, name, multiquery)
    for name in ("tkaq_many_results", "ekaq_many_results"):
        _patch(undo, CoresetAggregator, name, sketch)
    for name in ("tkaq", "ekaq", "refine_bounds"):
        _patch(undo, KernelAggregator, name, loop)
    _patch(undo, KernelAggregator, "exact_many", exact)
    _patch(undo, NativeRefiner, "run", native)
    if serve:
        _install_serve(rec, undo)

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        undo.clear()

    return uninstall


def _install_serve(rec: Recorder, undo: list) -> None:
    """Serve-process layers: wire decode/encode, batch eval, cache probes."""
    from repro.cache.store import CertifiedAnswerCache
    from repro.serve import server as server_mod
    from repro.serve.batcher import MicroBatcher

    batch_ids = itertools.count(1)

    def decode(orig):
        def w(line, *a, **kw):
            return rec.call("serve", "decode", orig, (line,) + a, kw)
        return w

    def encode(orig):
        def w(payload):
            return rec.call("serve", "encode", orig, (payload,), {},
                            ref=payload.get("id"))
        return w

    def evaluate(orig):
        def w(self, live, backend):
            rec.add("serve.batches")
            rec.add("serve.batch_rows", len(live))
            t0 = time.perf_counter()
            try:
                return rec.call("serve", "eval", orig,
                                (self, live, backend), {},
                                ref=next(batch_ids))
            finally:
                if len(live) == 1:
                    rec.add("serve.batches_1req")
                    rec.add("serve.eval_s_1req", time.perf_counter() - t0)
        return w

    def cache(orig):
        def w(self, q, *a, **kw):
            return rec.call("cache", orig.__name__, orig, (self, q) + a, kw)
        return w

    _patch(undo, server_mod, "decode_request", decode)
    _patch(undo, server_mod, "encode", encode)
    _patch(undo, MicroBatcher, "_evaluate", evaluate)
    for name in ("probe", "lookup", "insert"):
        _patch(undo, CertifiedAnswerCache, name, cache)


def engine_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of the query path, from spans and counters."""
    st = rec.self_times()
    c = rec.counts

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    served, fallback = c["sketch.served"], c["sketch.fallback"]
    return {
        "aggregator.calls": c["aggregator.calls"],
        "aggregator.self_s": st.get("aggregator", 0.0),
        "multiquery.self_s": st.get("multiquery", 0.0),
        "multiquery.queries": c["multiquery.queries"],
        "multiquery.rounds_per_query": ratio(c["multiquery.query_rounds"],
                                             c["multiquery.queries"]),
        "multiquery.points_per_query": ratio(c["multiquery.points"],
                                             c["multiquery.point_total"]),
        **{f"multiquery.{ph}_s": c[f"multiquery.{ph}_s"] for ph in MQ_PHASES},
        "exact.self_s": st.get("exact", 0.0),
        "exact.queries": c["exact.queries"],
        "sketch.self_s": st.get("sketch", 0.0),
        "sketch.served": served,
        "sketch.fallback": fallback,
        "sketch.served_share": ratio(served, served + fallback),
        "loop.self_s": st.get("loop", 0.0),
        "loop.queries": c["loop.queries"],
        "loop.iterations_per_query": ratio(c["loop.iterations"],
                                           c["loop.queries"]),
        "loop.points_per_query": ratio(c["loop.points"],
                                       c["loop.point_total"]),
        "native.self_s": st.get("native", 0.0),
        "native.iterations_per_query": ratio(c["native.iterations"],
                                             c["native.queries"]),
        "native.points_per_query": ratio(c["native.points"],
                                         c["native.point_total"]),
    }
