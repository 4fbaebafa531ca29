"""The benchmark's correctness check must fail a run that has a wrong answer.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

Each fault test runs ``run.main`` in this process with one engine call
(or one client request) patched to go wrong — an answer corrupted after
the engine returned it, or a request of the wrong dimension the server
must reject — and asserts that the run reports the failure on its result
line and exits non-zero.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run as bench  # noqa: E402


def run_inprocess(capsys, *args):
    code = bench.main(["--seed", "1", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _flip(res):
    res.answers[0] = not res.answers[0]


def _exclude_f(res):
    # F <= upper, so a lower bound above |upper| + 1 excludes it
    res.lower[0] = abs(res.upper[0]) + 1.0


def _far_estimate(res):
    # F <= upper and eps <= 0.2: 3|upper| + 1 is outside (1 +- eps) F
    res.estimates[0] = 3.0 * abs(res.upper[0]) + 1.0


@pytest.mark.parametrize("method, corrupt", [
    ("tkaq_many_results", _flip),
    ("tkaq_many_results", _exclude_f),
    ("ekaq_many_results", _far_estimate),
])
def test_corrupted_answer_fails_the_run(monkeypatch, capsys, method, corrupt):
    from repro.core import KernelAggregator

    orig = getattr(KernelAggregator, method)
    calls = itertools.count()

    def wrong_once(self, *a, **kw):
        res = orig(self, *a, **kw)
        if next(calls) == 0:
            corrupt(res)
        return res

    monkeypatch.setattr(KernelAggregator, method, wrong_once)
    code, result = run_inprocess(capsys, "--workload", "smooth_mix",
                                 "--seconds", "2")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 0


def test_server_error_response_fails_the_run(monkeypatch, capsys):
    import serve_zipf

    orig = serve_zipf.Stream.next
    calls = itertools.count()

    def wrong_dimension_once(self):
        kind, q, param = orig(self)
        if next(calls) == 0:
            q = q[:-1]
        return kind, q, param

    monkeypatch.setattr(serve_zipf.Stream, "next", wrong_dimension_once)
    code, result = run_inprocess(capsys, "--workload", "serve_zipf",
                                 "--seconds", "1")
    assert code != 0
    assert result["failed"] == 1


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--seed", "1", *args]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def test_without_engine_sources_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run("--workload", "near_tau", "--seconds", "1",
                      cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


# ----------------------------------------------------------------------
# the check itself, on hand-made answers
# ----------------------------------------------------------------------

def _reference():
    from repro.core import GaussianKernel

    rng = np.random.default_rng(0)
    P = rng.random((500, 4))
    w = np.ones(500)
    Q = rng.random((20, 4))
    kernel = GaussianKernel(gamma=2.0)
    return oracle.reference(kernel, P, w, Q)


def test_exact_answers_pass():
    F, margin = _reference()
    tau = np.median(F)
    c = oracle.Check()
    c.tkaq(F, margin, tau, F > tau, F, F)
    c.ekaq(F, margin, 0.1, F * 1.05, F * 0.9, F * 1.1)
    assert c.correct and c.checked == 40


def test_each_violation_is_counted():
    F, margin = _reference()
    tau = np.median(F)
    answers = F > tau
    answers[0] = not answers[0]
    c = oracle.Check()
    c.tkaq(F, margin, tau, answers, F, F)
    c.ekaq(F, margin, 0.1, F * 1.2, F, F)
    lower = F.copy()
    lower[3] = F[3] * 1.01
    c.ekaq(F, margin, 0.1, F, lower, F)
    assert (c.flipped, c.estimate, c.interval) == (1, 20, 1)
    assert not c.correct


def test_tau_within_rounding_margin_is_undecidable():
    F, margin = _reference()
    c = oracle.Check()
    c.tkaq(F, margin, F, ~(F > F), F, F)  # tau == F: either answer stands
    assert c.correct and c.undecidable == F.size
