"""Independent reference aggregates and the per-answer correctness check.

``F_P(q) = sum_i w_i K(q, p_i)`` is computed here from the points, the
weights and the kernel's parameters alone, with numpy and scipy's
``cdist``: ``exp(-gamma * ||q - p||^2)`` from explicit differences, and
``(gamma * q.p + coef0) ** degree`` for the polynomial kernel.  Nothing
from the engine's evaluators (``exact_many``, ``ScanEvaluator``) is used,
so a fault shared by every engine backend still shows.

Every comparison allows a float64 rounding margin of
``64 * n * u * sum_i |w_i K(q, p_i)|`` with ``u = 2**-53``: a generous
multiple of the worst-case error of an ``n``-term float64 sum, covering
both the engine's arithmetic and this module's.  A TKAQ query whose
``|F - tau|`` falls inside that margin is *undecidable* in float64 and is
counted as such, never as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

U = 2.0 ** -53
#: rounding margin multiplier (see module docstring)
MARGIN_FACTOR = 64.0
#: cap on the (queries x points) elements one reference block computes
_BLOCK_ELEMENTS = 1 << 22


def kernel_matrix(kernel, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``K(q, p)`` for every row pair, from the kernel's parameters only."""
    name = type(kernel).__name__
    if name == "GaussianKernel":
        return np.exp(-float(kernel.gamma) * cdist(Q, P, "sqeuclidean"))
    if name == "PolynomialKernel":
        base = float(kernel.gamma) * (Q @ P.T) + float(kernel.coef0)
        return base ** int(kernel.degree)
    raise ValueError(f"no reference formula for {kernel!r}")


def reference(kernel, points, weights, Q) -> tuple[np.ndarray, np.ndarray]:
    """``(F, margin)`` per query row: the aggregate and its rounding margin."""
    Q = np.asarray(Q, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = points.shape[0]
    F = np.empty(Q.shape[0])
    mass = np.empty(Q.shape[0])
    per = max(1, _BLOCK_ELEMENTS // n)
    for s in range(0, Q.shape[0], per):
        K = kernel_matrix(kernel, Q[s:s + per], points)
        F[s:s + per] = K @ weights
        mass[s:s + per] = np.abs(K) @ np.abs(weights)
    return F, MARGIN_FACTOR * n * U * mass


@dataclass
class Check:
    """Running tally of checked answers and the ways they went wrong."""

    checked: int = 0
    undecidable: int = 0
    interval: int = 0     #: [lower, upper] excludes F
    flipped: int = 0      #: TKAQ answer != (F > tau)
    estimate: int = 0     #: eKAQ estimate outside (1 +- eps) F
    #: closest decidable |F - tau| / |F| seen (how near tau gets to F)
    closest_tau: float = float("inf")
    examples: list = field(default_factory=list)

    @property
    def violations(self) -> int:
        return self.interval + self.flipped + self.estimate

    @property
    def correct(self) -> bool:
        return self.violations == 0

    def _note(self, what: str, mask: np.ndarray, F, *cols) -> None:
        if len(self.examples) < 5:
            for i in np.flatnonzero(mask)[:5 - len(self.examples)]:
                self.examples.append(
                    (what, float(F[i]), *(float(c[i]) for c in cols)))

    def _interval(self, F, margin, lower, upper) -> None:
        bad = (np.asarray(lower) > F + margin) | (np.asarray(upper) < F - margin)
        self.interval += int(bad.sum())
        self._note("interval", bad, F, lower, upper)

    def tkaq(self, F, margin, tau, answers, lower, upper) -> None:
        """Check TKAQ answers and their certified intervals."""
        F = np.asarray(F)
        tau = np.broadcast_to(np.asarray(tau, dtype=np.float64), F.shape)
        answers = np.asarray(answers, dtype=bool)
        self.checked += F.shape[0]
        self._interval(F, margin, lower, upper)
        near = np.abs(F - tau) <= margin
        self.undecidable += int(near.sum())
        bad = (answers != (F > tau)) & ~near
        self.flipped += int(bad.sum())
        self._note("tkaq", bad, F, tau, answers)
        if (~near).any():
            rel = np.abs(F - tau)[~near] / np.maximum(np.abs(F[~near]), 1e-300)
            self.closest_tau = min(self.closest_tau, float(rel.min()))

    def ekaq(self, F, margin, eps, estimates, lower, upper) -> None:
        """Check eKAQ estimates against ``(1 +- eps) F`` and their intervals."""
        F = np.asarray(F)
        eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), F.shape)
        estimates = np.asarray(estimates, dtype=np.float64)
        self.checked += F.shape[0]
        self._interval(F, margin, lower, upper)
        bad = np.abs(estimates - F) > eps * np.abs(F) + margin
        self.estimate += int(bad.sum())
        self._note("ekaq", bad, F, eps, estimates)

    def summary(self) -> dict:
        return {
            "checked": self.checked, "undecidable": self.undecidable,
            "violations": {"interval": self.interval, "tkaq": self.flipped,
                           "ekaq": self.estimate},
            "closest_tau_rel": (None if self.closest_tau == float("inf")
                                else self.closest_tau),
            "examples": self.examples,
        }
