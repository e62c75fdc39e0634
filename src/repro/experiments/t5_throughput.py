"""T5 — amortized update cost (paper §4, "Update time").

Paper claim: the amortized update time is O(log B) = O(log k +
log log(εn)) — i.e. growing the buffer 64× should change per-item cost
only by the ratio of the logs, not 64×.  We measure driver-side
streaming throughput (vectorized batches, the production insert path)
for a sweep of k, plus the number of compactions actually performed
(which the amortization argument bounds by ~ n/k per level).
"""
from __future__ import annotations

import math
import time

import pandas as pd

from repro.core.req_sketch import ReqSketch
from repro.synth_data import stream_array

PAPER_CLAIM = (
    "Amortized update O(log B): per-item cost roughly proportional to log2(B), "
    "so cost ratio between k=16 and k=1024 stays near log ratio (~1.6x), not 64x."
)


def run(spark=None, *, quick: bool = False) -> pd.DataFrame:
    n = 1 << (18 if quick else 21)
    data = stream_array("uniform", n, seed=3)
    ks = [16, 64, 256] if quick else [16, 64, 256, 1024]
    rows = []
    for k in ks:
        sk = ReqSketch(k, seed=1)
        t0 = time.perf_counter()
        sk.update(data)
        dt = time.perf_counter() - t0
        compactions = sum(lv.state for lv in sk.levels)
        rows.append(
            {
                "k": k,
                "B": sk.B,
                "log2_B": math.log2(sk.B),
                "items_per_sec": n / dt,
                "ns_per_item": dt / n * 1e9,
                "compactions": compactions,
                "retained": sk.num_retained(),
            }
        )
    df = pd.DataFrame(rows)
    base = df.iloc[0]
    df["cost_ratio_vs_first"] = df["ns_per_item"] / base["ns_per_item"]
    df["log_ratio_vs_first"] = df["log2_B"] / base["log2_B"]
    return df


def check(df: pd.DataFrame) -> None:
    """Per-item cost at the largest k stays under 4x the smallest k's."""
    ratio = df["cost_ratio_vs_first"].iloc[-1]
    if not ratio < 4.0:
        raise AssertionError(f"cost ratio {ratio:.2f} >= 4")
