"""Steadiness check: run workloads repeatedly in two sets and compare.

Usage, from the root of the repository::

    python3 perfbench/steady.py                      # every workload, 2 x 10 runs
    python3 perfbench/steady.py --workloads near_tau --runs 5 --sets 1

Each run is ``perfbench/run.py`` with ``--trace 0``, the run length from
``BENCHMARK.json`` and a seed of its own (set ``k`` uses seeds
``k * runs + 1`` to ``k * runs + runs``).  For every end-to-end metric
the command prints each set's median and quartiles and the spread
(interquartile range over median), and flags

* ``SPREAD`` — a set's spread exceeds the metric's bound (``setup_s``
  exempt), and
* ``DRIFT`` — the second set's median differs from the first's, better
  or worse, by more than the bound (printed as the signed change).

It also flags a run that failed or whose share of failed operations
differs from the others.  Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    out["exit"] = p.returncode
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2, choices=(1, 2))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    metrics = spec["end_to_end"]
    flagged = False
    for wl in args.workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = k * args.runs + i + 1
                r = one_run(wl, seed, args.seconds)
                runs.append(r)
                share = r["failed"] / max(1, r["attempted"])
                values = " ".join(
                    f"{m['name']}="
                    f"{r['metrics'].get(m['name'], {}).get('value', 0.0):.5g}"
                    for m in metrics)
                print(f"{wl} set {k + 1} seed {seed}: exit {r['exit']} "
                      f"correct {r['correct']} failed share {share:.6f} "
                      + values, flush=True)
            sets.append(runs)
        bad_runs = [r for s in sets for r in s
                    if r["exit"] != 0 or not r["correct"]]
        shares = {r["failed"] / max(1, r["attempted"]) for s in sets for r in s}
        if bad_runs or len(shares) > 1:
            flagged = True
            print(f"{wl}: FAILED RUNS {len(bad_runs)}, failed shares "
                  f"{sorted(shares)}")
        print(f"\n{wl}: metric, per set: q1 / median / q3 (spread); bound")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds, line = [], []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s
                        if name in r["metrics"]]
                if len(vals) < 2:
                    line.append("n/a")
                    meds.append(None)
                    continue
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, flagged = " SPREAD", True
                line.append(f"{q1:.5g} / {q2:.5g} / {q3:.5g} "
                            f"({spread:.3f}){flag}")
                meds.append(q2)
            drift = ""
            if len(meds) == 2 and None not in meds:
                a, b = meds
                moved = (b - a) / a
                if abs(moved) > bound:
                    drift, flagged = f"  DRIFT {moved:+.3f}", True
            print(f"  {name:18s} " + " | ".join(line)
                  + f"; bound {bound}{drift}")
        print()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
