"""Shared experiment utilities: error sweeps, table formatting.

Every experiment module exposes ``run(spark=None, *, quick=False) ->
pandas.DataFrame``, a ``check(df)`` that asserts the table's shape, and
a ``PAPER_CLAIM`` string; ``python -m repro.experiments`` prints the
frame with :func:`format_table` and EXPERIMENTS.md records
paper-vs-measured.  ``quick=True`` shrinks sizes for CI-speed smoke
tests.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd

from repro.baselines.exact import ExactRanks, relative_errors


def format_table(df: pd.DataFrame, title: str = "") -> str:
    """Fixed-width rendering of a result frame (floats to 4 significant)."""
    with pd.option_context(
        "display.width", 200, "display.max_columns", 50, "display.float_format",
        lambda v: f"{v:.4g}",
    ):
        body = df.to_string(index=False)
    return f"== {title} ==\n{body}" if title else body


def rank_grid(n: int) -> np.ndarray:
    """Log-spaced true ranks from 1 to n (inclusive), three per decade,
    deduplicated.

    Covers the low-rank tail densely — the regime where relative error
    differs from additive error.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pts = np.unique(
        np.round(
            np.logspace(0, np.log10(n), num=max(2, int(np.log10(n) * 3) + 1))
        ).astype(np.int64)
    )
    return np.clip(pts, 1, n)


def tail_error_profile(
    estimator_ranks: Callable[[Sequence[float]], np.ndarray],
    exact: ExactRanks,
    ranks: np.ndarray,
) -> np.ndarray:
    """Relative errors of an estimator at the items holding given true ranks."""
    ys = exact.values_at_ranks(ranks)
    est = estimator_ranks(ys)
    true = exact.ranks(ys)
    return relative_errors(est, true)


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x) — measured power law."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])
