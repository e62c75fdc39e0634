"""T1 — space as a function of stream length n (fixed accuracy target).

Paper claim (Theorem 1 / §1.1): at fixed ε the REQ sketch stores
O(ε⁻¹·log^1.5(εn)) items; the naive protect-half schedule (≈ Zhang et
al. [24]) needs Θ(ε⁻²·log(ε²n)); KLL's additive-error space is O(1/ε),
independent of n.  Reproduced shape: REQ space grows polylog in n with
exponent ≈ 1.5; the naive baseline pays a much larger constant (its
ε⁻² section size) but grows with a smaller log exponent; KLL is flat.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.kll import KllSketch
from repro.baselines.naive_protect import naive_for_error
from repro.core.req_sketch import ReqSketch
from repro.experiments.harness import growth_exponent
from repro.synth_data import stream_array

PAPER_CLAIM = (
    "REQ space = O(eps^-1 log^1.5(eps n)); naive = Theta(eps^-2 log(eps^2 n)); "
    "KLL (additive) space independent of n.  Shape: req_retained/log^1.5(eps n) "
    "roughly constant; kll_retained constant; naive >> req at equal eps."
)

EPS = 0.1
DELTA = 0.05


def run(spark=None, *, quick: bool = False) -> pd.DataFrame:
    exps = [14, 16, 18] if quick else [14, 16, 18, 20, 22]
    rows = []
    for e in exps:
        n = 1 << e
        data = stream_array("permutation", n, seed=e)
        req = ReqSketch.from_error_streaming(EPS, DELTA, n, seed=1).update(data)
        naive = naive_for_error(EPS, DELTA, n, seed=2).update(data)
        kll = KllSketch(k=int(8 / EPS), seed=3).update(data)
        log_en = np.log2(EPS * n)
        rows.append(
            {
                "n": n,
                "req_k": req.k,
                "req_retained": req.num_retained(),
                "req_capacity": req.B * req.num_levels,
                "pred_log15": log_en ** 1.5 / EPS,
                "naive_k": naive.k,
                "naive_retained": naive.num_retained(),
                "kll_retained": kll.num_retained(),
            }
        )
    df = pd.DataFrame(rows)
    # Normalized columns: constant <=> the predicted growth law holds.
    df["req_over_pred"] = df["req_retained"] / df["pred_log15"]
    df.attrs["req_logn_exponent"] = growth_exponent(
        np.log2(EPS * df["n"].to_numpy()), df["req_retained"].to_numpy()
    )
    df.attrs["kll_logn_exponent"] = growth_exponent(
        np.log2(EPS * df["n"].to_numpy()), df["kll_retained"].to_numpy()
    )
    return df


def check(df: pd.DataFrame) -> None:
    """The naive schedule retains more than REQ at every n."""
    if not (df["naive_retained"] > df["req_retained"]).all():
        raise AssertionError("naive space <= REQ space at some n")
