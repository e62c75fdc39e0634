"""T2 — space as a function of the accuracy target ε (fixed n).

Paper claim (§1, §1.1): the key improvement over Zhang et al. [24] is
the *linear* dependence on 1/ε (previously quadratic).  At fixed n,
halving ε should roughly double REQ's space but quadruple the naive
baseline's.  The measured power-law exponent of retained items against
1/ε should be ≈ 1 for REQ and ≈ 2 for the naive schedule.
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.naive_protect import naive_for_error
from repro.core.req_sketch import ReqSketch
from repro.experiments.harness import growth_exponent
from repro.synth_data import stream_array

PAPER_CLAIM = (
    "Space exponent in 1/eps: REQ ~ 1 (Theorem 1), naive/Zhang-et-al ~ 2. "
    "Crossover: naive competitive only at very coarse eps."
)

DELTA = 0.05
N_EXP = 18


def run(spark=None, *, quick: bool = False) -> pd.DataFrame:
    n = 1 << (16 if quick else N_EXP)
    eps_list = [0.4, 0.2, 0.1] if quick else [0.4, 0.2, 0.1, 0.05, 0.025]
    data = stream_array("permutation", n, seed=7)
    rows = []
    for eps in eps_list:
        req = ReqSketch.from_error_streaming(eps, DELTA, n, seed=1).update(data)
        naive = naive_for_error(eps, DELTA, n, seed=2).update(data)
        rows.append(
            {
                "eps": eps,
                "req_k": req.k,
                "req_retained": req.num_retained(),
                "naive_k": naive.k,
                "naive_retained": naive.num_retained(),
                "naive_over_req": naive.num_retained() / req.num_retained(),
            }
        )
    df = pd.DataFrame(rows)
    inv_eps = [1.0 / e for e in df["eps"]]
    df.attrs["req_eps_exponent"] = growth_exponent(inv_eps, df["req_retained"])
    df.attrs["naive_eps_exponent"] = growth_exponent(inv_eps, df["naive_retained"])
    return df


def check(df: pd.DataFrame) -> None:
    """Naive's space over REQ's grows from the coarsest to the finest eps."""
    ratio = df["naive_over_req"]
    if not ratio.iloc[-1] > ratio.iloc[0]:
        raise AssertionError(f"naive/REQ space did not grow: {list(ratio)}")
