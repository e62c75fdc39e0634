"""T4 — full mergeability in a real distributed dataflow (Theorem 1, App. C).

Paper claim: splitting the input arbitrarily, sketching pieces
separately, and combining partial sketches through *any* sequence of
merge operations preserves the same relative-error guarantee and space
as one-pass streaming.  We build the sketch over TPC-H-lite
``lineitem.l_extendedprice`` five ways —

* driver-side single stream (reference),
* Spark ``mapInPandas`` partials + balanced merge tree (4/16/64 parts),
* partials + *sequential* (maximally unbalanced) merge chain,
* the same partials merged on executors by RDD ``treeReduce``,

and report the max/mean relative error of each against oracle-checked
exact ranks, plus retained space.  Shape to reproduce: every row's
error is in the same band; space is within a constant of streaming.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import synth_data
from repro.baselines.exact import relative_errors
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import (
    build_sketch,
    merge_balanced,
    merge_sequential,
    partition_sketches,
)
from repro.spark.queries import exact_ranks

PAPER_CLAIM = (
    "Merged-anyhow sketch == streaming sketch: same eps guarantee, same space "
    "up to constants, for any merge tree (balanced, chain, treeAggregate)."
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


def run(spark, *, quick: bool = False, sf: float | None = None) -> pd.DataFrame:
    if spark is None:
        raise ValueError("T4 needs a SparkSession")
    sf = sf if sf is not None else (0.01 if quick else 0.1)
    df = synth_data.lineitem(spark, sf=sf, seed=0).select("l_extendedprice")
    df = df.cache()
    n = df.count()

    # Query grid: log-spaced percentiles of the price column incl. tails.
    pdf = df.toPandas()
    values = np.sort(pdf["l_extendedprice"].to_numpy())
    target_ranks = np.unique(
        np.clip(np.round(np.logspace(0, np.log10(n), 25)).astype(int), 1, n)
    )
    ys = values[target_ranks - 1]
    # ys is ascending (sorted values at increasing ranks), matching the
    # ORDER BY y of exact_ranks, so truth aligns positionally with ys.
    truth_df = exact_ranks(df, "l_extendedprice", list(ys))
    truth = np.array([r["rank"] for r in truth_df.collect()])

    rows = []
    stream = ReqSketch(K, seed=11).update(values)
    rows.append(_error_row("driver_stream", stream, truth, ys, 1))

    part_list = [4, 16] if quick else [4, 16, 64]
    for parts in part_list:
        d = df.repartition(parts)
        partials = partition_sketches(d, "l_extendedprice", k=K, seed=21)
        rows.append(
            _error_row("map_partitions/balanced", merge_balanced(partials), truth, ys, parts)
        )
        partials = partition_sketches(d, "l_extendedprice", k=K, seed=22)
        rows.append(
            _error_row("map_partitions/chain", merge_sequential(partials), truth, ys, parts)
        )
    ta_parts = 8 if quick else 32
    ta = build_sketch(
        df.repartition(ta_parts),
        "l_extendedprice",
        k=K,
        seed=23,
        method="tree_aggregate",
        depth=2,
    )
    rows.append(_error_row("rdd_tree_aggregate", ta, truth, ys, ta_parts))

    out = pd.DataFrame(rows)
    out.attrs["n"] = n
    df.unpersist()
    return out


def check(df: pd.DataFrame) -> None:
    """Every build conserves weight and stays in the 0.08 error band."""
    if not df["weight_ok"].all():
        raise AssertionError("a build lost or gained weight")
    if not df["max_rel_err"].max() < 0.08:
        raise AssertionError(f"max rel err {df['max_rel_err'].max()} >= 0.08")
