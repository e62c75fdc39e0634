"""T4 — full mergeability in a real distributed dataflow (Theorem 1, App. C).

Paper claim: splitting the input arbitrarily, sketching pieces
separately, and combining partial sketches through *any* sequence of
merge operations preserves the same relative-error guarantee and space
as one-pass streaming.  We build the sketch over TPC-H-lite
``lineitem.l_extendedprice`` three ways —

* driver-side single stream (reference),
* Spark ``mapInArrow`` partials + balanced merge tree (4/16/64 parts),
* the same partials + *sequential* (maximally unbalanced) merge chain,

and report the max/mean relative error of each against oracle-checked
exact ranks, plus retained space.  Each partition count's partials are
built once: the balanced tree merges copies of them and the chain the
originals, so the two rows differ only in their tree.  Shape to
reproduce: every row's error is in the same band; space is within a
constant of streaming.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import synth_data
from repro.baselines.exact import relative_errors
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import merge_balanced, merge_sequential, partition_sketches
from repro.spark.queries import exact_ranks

PAPER_CLAIM = (
    "Merged-anyhow sketch == streaming sketch: same eps guarantee, same space "
    "up to constants, for any merge tree (balanced, chain)."
)

K = 64


def _error_row(name, sk, truth, ys, parts):
    est = sk.ranks(ys)
    rel = relative_errors(est, truth)
    return {
        "build": name,
        "partitions": parts,
        "retained": sk.num_retained(),
        "levels": sk.num_levels,
        "max_rel_err": float(rel.max()),
        "mean_rel_err": float(rel.mean()),
        "weight_ok": sk.total_weight() == sk.n,
    }


def run(spark, *, quick: bool = False) -> pd.DataFrame:
    if spark is None:
        raise ValueError("T4 needs a SparkSession")
    sf = 0.01 if quick else 0.1
    # Materialized once, without the lineage of the driver-built rows:
    # a cached frame's later stages would still ship those rows in every
    # task.  Its blocks are freed when the JVM collects the checkpointed
    # RDD; ``unpersist`` does not reach them.
    df = synth_data.lineitem(spark, sf=sf, seed=0).select("l_extendedprice").localCheckpoint()
    n = df.count()

    # Query grid: log-spaced percentiles of the price column incl. tails.
    values = np.sort(df.toArrow().column(0).to_numpy())
    target_ranks = np.unique(
        np.clip(np.round(np.logspace(0, np.log10(n), 25)).astype(int), 1, n)
    )
    ys = values[target_ranks - 1]
    # ys is ascending (sorted values at increasing ranks), matching the
    # ORDER BY y of exact_ranks, so truth aligns positionally with ys.
    truth_df = exact_ranks(df, "l_extendedprice", list(ys))
    truth = truth_df.toArrow().column("rank").to_numpy()

    rows = []
    stream = ReqSketch(K, seed=11).update(values)
    rows.append(_error_row("driver_stream", stream, truth, ys, 1))

    part_list = [4, 16] if quick else [4, 16, 64]
    for parts in part_list:
        d = df.repartition(parts)
        partials = partition_sketches(d, "l_extendedprice", k=K, seed=21)
        balanced = merge_balanced([sk.copy() for sk in partials])
        rows.append(_error_row("map_partitions/balanced", balanced, truth, ys, parts))
        rows.append(
            _error_row("map_partitions/chain", merge_sequential(partials), truth, ys, parts)
        )

    out = pd.DataFrame(rows)
    out.attrs["n"] = n
    return out


def check(df: pd.DataFrame) -> None:
    """Every build conserves weight and stays in the 0.08 error band."""
    if not df["weight_ok"].all():
        raise AssertionError("a build lost or gained weight")
    if not df["max_rel_err"].max() < 0.08:
        raise AssertionError(f"max rel err {df['max_rel_err'].max()} >= 0.08")
