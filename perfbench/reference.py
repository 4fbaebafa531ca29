"""Reference figures for README.md: ``auto`` against an exact scan.

Usage, from the root of the repository::

    python3 perfbench/reference.py [--seed 1]

For each library workload, every batch is replayed once through
``backend="auto"`` and once through ``backend="exact"`` (a blocked scan
over every point) and the queries per second of each are printed.  The serve
figures in README.md come from a traced ``serve_zipf`` run
(``run.py --trace 1``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import library  # noqa: E402


def scan_vs_auto(name: str, seed: int) -> None:
    streams, _, _ = library.setup(name, seed)
    for s in streams:
        secs = {}
        for backend in ("auto", "exact"):
            t0 = time.perf_counter()
            for b in s.batches:
                if b.kind == "tkaq":
                    s.agg.tkaq_many_results(b.queries, b.param,
                                            backend=backend)
                else:
                    s.agg.ekaq_many_results(b.queries, b.param,
                                            backend=backend)
            secs[backend] = time.perf_counter() - t0
        nq = sum(b.queries.shape[0] for b in s.batches)
        print(f"{name:10s} {s.name:13s} n={s.points.shape[0]:6d} "
              f"queries={nq:5d}  auto {nq / secs['auto']:8.0f} q/s  "
              f"exact {nq / secs['exact']:8.0f} q/s  "
              f"auto/exact {secs['exact'] / secs['auto']:.2f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    for name in library.WORKLOADS:
        scan_vs_auto(name, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
