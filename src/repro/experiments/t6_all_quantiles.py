"""T6 — simultaneous guarantee over every rank (Corollary 1).

Paper claim: with a modest parameter inflation (union bound over an
O(ε⁻¹·log(εn))-point epsilon-net), the ε·R(y) bound holds for *all*
y ∈ U simultaneously with probability 1−δ.  We measure, per seed, the
maximum over every distinct stream item y of |R̂(y)−R(y)|/R(y), and
report the distribution of that maximum across seeds; exactness of the
protected head (ranks ≤ B/2) is also verified.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.exact import ExactRanks, relative_errors
from repro.core.req_sketch import ReqSketch
from repro.synth_data import stream_array

PAPER_CLAIM = (
    "All-quantiles: max over all y of |Rhat-R|/R <= eps with prob 1-delta, "
    "with space inflated only by sqrt(log(log(eps n)/(eps delta))/log(1/delta)). "
    "Head exact: ranks <= B/2 have zero error always."
)

K = 64


def run(spark=None, *, quick: bool = False) -> pd.DataFrame:
    n = 1 << (14 if quick else 17)
    seeds = range(3) if quick else range(10)
    rows = []
    for seed in seeds:
        data = stream_array("permutation", n, seed=300 + seed)
        exact = ExactRanks(data)
        sk = ReqSketch(K, seed=seed).update(data)
        ys = np.arange(1, n + 1, dtype=np.float64)  # every distinct item
        rel = relative_errors(sk.ranks(ys), exact.ranks(ys))
        head = sk.protected_head
        rows.append(
            {
                "seed": seed,
                "k": K,
                "retained": sk.num_retained(),
                "max_rel_all_y": float(rel.max()),
                "mean_rel_all_y": float(rel.mean()),
                "argmax_rank": int(np.argmax(rel)) + 1,
                "head_exact": bool(np.all(rel[:head] == 0.0)),
            }
        )
    return pd.DataFrame(rows)


def check(df: pd.DataFrame) -> None:
    """The protected head is exact and no rank errs by 5% or more, per seed."""
    if not df["head_exact"].all():
        raise AssertionError("protected head not exact")
    if not df["max_rel_all_y"].max() < 0.05:
        raise AssertionError(f"max rel err {df['max_rel_all_y'].max()} >= 0.05")
