"""Correctness gate: sketch answers checked against numpy truth.

The truth is computed from the generated arrays alone, with no Spark.
A sketch passes when

* its total weight equals the number of items it summarized,
* every rank up to its ``protected_head`` is estimated exactly, and
* every rank on the check grid (first ranks, a geometric sweep, and the
  p99..p999 region) has relative error ``|R_hat - R| / R`` below the
  repository's T4 band of 0.08.

Quantile answers are judged in rank space: the true rank of the returned
value against the target rank ``ceil(phi * n)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

REL_ERR_BAND = 0.08


@dataclass
class Verdict:
    """Outcome of one gate: pass/fail, the worst relative error, and why."""

    ok: bool = True
    max_rel_err: float = 0.0
    problems: List[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.ok = False
        self.problems.append(msg)


def check_grid(n: int) -> np.ndarray:
    """1-based ranks the gate probes: the first ranks, a geometric sweep
    over the whole range, and a dense sweep of the p99..p999 region."""
    first = np.arange(1, min(n, 64) + 1)
    sweep = np.geomspace(1, n, 96)
    tail = np.linspace(0.99 * n, 0.999 * n, 48)
    grid = np.concatenate([first, sweep, tail, [n]])
    return np.unique(np.clip(np.round(grid).astype(np.int64), 1, n))


def true_ranks(sorted_vals: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Exact inclusive ranks R(y) = |{x <= y}|."""
    return np.searchsorted(sorted_vals, ys, side="right").astype(np.int64)


def check_sketch(sk, sorted_vals: np.ndarray) -> Verdict:
    """Weight, exact protected head and relative-error band of one sketch."""
    v = Verdict()
    n = int(sorted_vals.size)
    w = sk.total_weight()
    if w != n:
        v.fail(f"total_weight {w} != n {n}")
    if n == 0:
        return v
    head = min(int(sk.protected_head), n)
    ys = sorted_vals[:head]
    if head and not np.array_equal(sk.ranks(ys), true_ranks(sorted_vals, ys)):
        v.fail(f"a rank <= protected_head {head} is not exact")
    ys = sorted_vals[check_grid(n) - 1]
    truth = true_ranks(sorted_vals, ys)
    rel = np.abs(sk.ranks(ys) - truth) / truth
    v.max_rel_err = float(rel.max())
    if v.max_rel_err >= REL_ERR_BAND:
        worst = int(np.argmax(rel))
        v.fail(
            f"rank {int(truth[worst])}: rel err {v.max_rel_err:.4f} >= {REL_ERR_BAND}"
        )
    return v


def target_ranks(phis: Sequence[float], n: int) -> np.ndarray:
    """Rank the quantile query aims at: ceil(phi * n), clipped to [1, n]."""
    return np.clip(np.ceil(np.asarray(phis, dtype=np.float64) * n), 1, n).astype(np.int64)


def check_quantiles(
    values: Sequence[float], phis: Sequence[float], sorted_vals: np.ndarray, *, exact: bool
) -> Verdict:
    """Quantile answers of one (group's) sketch. ``exact`` demands the
    exact order statistic, as for a group no larger than B/2."""
    v = Verdict()
    vals = np.asarray(values, dtype=np.float64)
    t = target_ranks(phis, sorted_vals.size)
    if exact:
        want = sorted_vals[t - 1]
        if not np.array_equal(vals, want):
            v.fail(f"group of {sorted_vals.size} items: quantiles not exact")
        return v
    rel = np.abs(true_ranks(sorted_vals, vals) - t) / t
    v.max_rel_err = float(rel.max())
    if v.max_rel_err >= REL_ERR_BAND:
        v.fail(f"quantile rank rel err {v.max_rel_err:.4f} >= {REL_ERR_BAND}")
    return v
