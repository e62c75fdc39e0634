"""T3 — relative error across ranks, especially the low-rank tail.

Paper claim (Theorem 1; §1 motivation; footnote 1): the REQ sketch's
error at an item of rank R is at most ε·R with probability 1−δ — a
*flat* relative-error profile across all ranks, exact for ranks ≤ B/2.
By contrast an additive sketch (KLL) has |err| ≈ ε_add·n everywhere, so
its relative error at rank R behaves like ε_add·n/R — exploding in the
tail — and a subsample of rate p has relative error ~ 1/sqrt(p·R).

All three estimators are given comparable space budgets.  Errors are
aggregated over independent seeds (mean and max per rank).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.exact import ExactRanks
from repro.baselines.kll import KllSketch
from repro.baselines.sampling import BernoulliSampler
from repro.core.req_sketch import ReqSketch
from repro.experiments.harness import rank_grid, tail_error_profile
from repro.synth_data import stream_array

PAPER_CLAIM = (
    "REQ: |err(y)| <= eps*R(y) whp, exact for R(y) <= B/2 — flat relative error. "
    "KLL: relative error ~ c*n/R, blows up as R -> 1.  Sampling: ~ 1/sqrt(p*R)."
)

K_REQ = 64


def run(spark=None, *, quick: bool = False) -> pd.DataFrame:
    n = 1 << (16 if quick else 20)
    seeds = range(3) if quick else range(7)
    ranks = rank_grid(n)
    acc: dict[str, list[np.ndarray]] = {"req": [], "kll": [], "sample": []}
    req_space = kll_space = samp_space = 0
    for seed in seeds:
        data = stream_array("permutation", n, seed=100 + seed)
        exact = ExactRanks(data)
        req = ReqSketch(K_REQ, seed=seed).update(data)
        req_space = req.num_retained()
        # Space-match the comparators to the REQ sketch's footprint.
        kll = KllSketch(k=max(8, int(req_space / 1.5)), seed=seed).update(data)
        kll_space = kll.num_retained()
        samp = BernoulliSampler(min(1.0, req_space / n), seed=seed).update(data)
        samp_space = samp.num_retained()
        acc["req"].append(tail_error_profile(req.ranks, exact, ranks))
        acc["kll"].append(tail_error_profile(kll.ranks, exact, ranks))
        acc["sample"].append(tail_error_profile(samp.ranks, exact, ranks))
    df = pd.DataFrame({"rank": ranks, "rank_frac": ranks / n})
    for name in ("req", "kll", "sample"):
        errs = np.vstack(acc[name])
        df[f"{name}_mean_rel"] = errs.mean(axis=0)
        df[f"{name}_max_rel"] = errs.max(axis=0)
    df.attrs["n"] = n
    df.attrs["space"] = {"req": req_space, "kll": kll_space, "sample": samp_space}
    return df


def check(df: pd.DataFrame) -> None:
    """REQ is exact at ranks <= 10, where KLL is off by more than 100%."""
    low = df[df["rank"] <= 10]
    if low["req_max_rel"].max() != 0.0:
        raise AssertionError("REQ not exact at ranks <= 10")
    if not low["kll_max_rel"].max() > 1.0:
        raise AssertionError("KLL within 100% at ranks <= 10")
