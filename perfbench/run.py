"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload near_tau --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every operation succeeded and every answer checked out
against the independent reference in ``oracle.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

# the load generator and the engine each stay on one thread: numpy's BLAS
# pool would otherwise take every core (set before numpy is imported; the
# serve host inherits it)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("near_tau", "smooth_mix", "svm_poly", "serve_zipf")

#: (name, unit) of every metric, in print order
END_TO_END = [
    ("setup_s", "s"), ("query_qps", "queries/s"), ("serial_p50_ms", "ms"),
    ("pipelined_qps", "requests/s"), ("pipelined_p50_ms", "ms"),
    ("pipelined_p99_ms", "ms"),
]
PER_LAYER = [
    ("workloads.build_s", "s"), ("svm.fit_s", "s"), ("index.build_s", "s"),
    ("sketch.build_s", "s"), ("serve.start_s", "s"),
    ("aggregator.calls", "count"), ("aggregator.self_s", "s"),
    ("multiquery.self_s", "s"), ("multiquery.queries", "count"),
    ("multiquery.rounds_per_query", "rounds"),
    ("multiquery.points_per_query", "share"),
    ("multiquery.bounds_s", "s"), ("multiquery.leaves_s", "s"),
    ("multiquery.select_s", "s"), ("multiquery.terminate_s", "s"),
    ("exact.self_s", "s"), ("exact.queries", "count"),
    ("sketch.self_s", "s"), ("sketch.served", "count"),
    ("sketch.fallback", "count"), ("sketch.served_share", "share"),
    ("loop.self_s", "s"), ("loop.queries", "count"),
    ("loop.iterations_per_query", "iterations"),
    ("loop.points_per_query", "share"),
    ("native.self_s", "s"), ("native.iterations_per_query", "iterations"),
    ("native.points_per_query", "share"),
    ("cache.probe_s", "s"), ("cache.hit", "count"), ("cache.miss", "count"),
    ("cache.insert", "count"), ("cache.warm_start", "count"),
    ("cache.hit_share", "share"),
    ("serve.decode_s", "s"), ("serve.encode_s", "s"), ("serve.eval_s", "s"),
    ("serve.batches", "count"), ("serve.batch_size_mean", "requests"),
    ("serve.batches_1req", "count"), ("serve.eval_ms_1req", "ms"),
    ("serve.queue_delay_ms_p50", "ms"), ("serve.queue_delay_ms_p99", "ms"),
    ("serve.request_ms_p50", "ms"), ("serve.request_ms_p99", "ms"),
    ("serve.singleflight", "count"),
    ("obs.trace_overhead", "ratio"), ("uncovered_share", "share"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def stamp(args) -> dict:
    """Workload, seed, program version and host of this run."""
    import numpy as np
    from repro import native

    try:  # only a repository rooted here counts (never one above it)
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
        commit = out if (ROOT / ".git").exists() and out else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "repro").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode())
        digest.update(f.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "native": native.native_status(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the serve host is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import oracle

    info = stamp(args)
    print("run  " + json.dumps(info), flush=True)
    check = oracle.Check()
    t0 = time.perf_counter()
    if args.workload == "serve_zipf":
        import serve_zipf

        metrics, attempted, failed, errors = serve_zipf.run(
            args.seed, args.seconds, bool(args.trace), check)
    else:
        import library

        streams, setup_times, setup_layers = library.setup(
            args.workload, args.seed)
        tally, metrics = library.measure(
            args.workload, streams, args.seconds, bool(args.trace), check)
        attempted, failed, errors = tally.attempted, tally.failed, tally.errors
        if args.trace:
            metrics.update(setup_layers)
        else:
            metrics["setup_s"] = sorted(setup_times)[len(setup_times) // 2]
    wall = time.perf_counter() - t0

    names = PER_LAYER if args.trace else END_TO_END
    out = {n: {"value": float(metrics.get(n, 0.0)), "unit": u}
           for n, u in names}
    summary = {"attempted": int(attempted), "failed": int(failed),
               "wall_s": wall, **check.summary()}
    print(f"\nworkload {args.workload}  seed {args.seed}  "
          f"wall {wall:.1f}s  attempted {attempted}  failed {failed}  "
          f"checked {summary['checked']}  undecidable "
          f"{summary['undecidable']}  closest tau (rel) "
          f"{summary['closest_tau_rel']}")
    for n, u in names:
        print(f"  {n:32s} {out[n]['value']:>16.6g}  {u}")
    for e in errors[:5]:
        print(f"error: {e}", file=sys.stderr)
    print("check " + json.dumps(summary))
    correct = check.correct
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": out}), flush=True)
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
