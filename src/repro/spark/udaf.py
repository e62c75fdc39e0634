"""Grouped sketching — the "UDAF" usage shape (applyInPandas).

Spark shuffles each group to one task, and the task builds the group's
sketch with ``aggregate.fill_sketch`` (the builder every Spark shape
shares), seeded from the group key.  What the task returns depends on
the call:

* ``group_sketches`` — the serialized sketch and its ``n`` per group,
  i.e. ``SELECT key, REQ_SKETCH(x) ... GROUP BY key``;
* ``group_quantiles`` — the exploded ``(keys..., phi, value)`` answers,
  evaluated in the task, so no sketch leaves the executor;
* ``merge_group_sketches`` rolls a table of group sketches up into one
  on the driver.

Why not a real Catalyst UDAF: PySpark's pandas GROUPED_AGG UDFs cannot
carry partial aggregation state across partitions (no merge hook), and
a JVM ``TypedImperativeAggregate`` needs a Scala build, which this
pure-Python package does not have (see DESIGN.md).
"""
from __future__ import annotations

import hashlib
from typing import List, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.core import serde
from repro.core.estimator import check_fractions
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import fill_sketch, merge_sequential


def _group_sketch(
    key: tuple, pdf: pd.DataFrame, value_col: str, template: ReqSketch, seed: int
) -> ReqSketch:
    """The per-group build: ``fill_sketch`` seeded by the group key.

    Each key part contributes a 4-byte BLAKE2b digest of ``str(v)``, which,
    unlike ``hash``, is the same in every process.
    """
    entropy = [seed] + [
        int.from_bytes(hashlib.blake2b(str(v).encode(), digest_size=4).digest(), "little")
        for v in key
    ]
    return fill_sketch(template, entropy, [pdf[value_col]])


def group_sketches(
    df: DataFrame,
    group_cols: List[str],
    value_col: str,
    *,
    k: int = 32,
    seed: int = 0,
    schedule: str = "req",
) -> DataFrame:
    """One REQ sketch per group: columns ``group_cols + [sketch, n]``."""
    out_schema = T.StructType(
        [df.schema[c] for c in group_cols]
        + [
            T.StructField("sketch", T.BinaryType(), False),
            T.StructField("n", T.LongType(), False),
        ]
    )
    template = ReqSketch(k, schedule=schedule)

    def emit(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        sk = _group_sketch(key, pdf, value_col, template, seed)
        row = {c: [v] for c, v in zip(group_cols, key)}
        row["sketch"] = [serde.to_bytes(sk)]
        row["n"] = [sk.n]
        return pd.DataFrame(row)

    return df.groupBy(*group_cols).applyInPandas(emit, schema=out_schema)


def group_quantiles(
    df: DataFrame,
    group_cols: List[str],
    value_col: str,
    phis: Sequence[float],
    *,
    k: int = 32,
    seed: int = 0,
) -> DataFrame:
    """Per-group quantile estimates: ``group_cols + [phi, value]``.

    Each group's answers are those of its ``group_sketches`` sketch (same
    ``k`` and ``seed``), evaluated in the task that builds it.  A group with no non-null
    value answers ``value = null``, as ``percentile_approx`` does.
    """
    phis = check_fractions(phis).tolist()
    out_schema = T.StructType(
        [df.schema[c] for c in group_cols]
        + [
            T.StructField("phi", T.DoubleType(), False),
            T.StructField("value", T.DoubleType(), True),
        ]
    )
    template = ReqSketch(k)

    def answer(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        sk = _group_sketch(key, pdf, value_col, template, seed)
        out = {c: [v] * len(phis) for c, v in zip(group_cols, key)}
        out["phi"] = phis
        out["value"] = sk.quantiles(phis) if sk.n else np.full(len(phis), np.nan)
        return pd.DataFrame(out)

    grouped = df.groupBy(*group_cols).applyInPandas(answer, schema=out_schema)
    return grouped.orderBy(*group_cols, "phi")


def merge_group_sketches(sketch_df: DataFrame) -> ReqSketch:
    """Merge every group's sketch into one — mergeability across GROUP BY.

    Demonstrates that per-group summaries can be rolled up to the global
    summary without touching the raw data (paper's mergeability pitch).
    """
    rows = sketch_df.select("sketch").collect()
    return merge_sequential([serde.from_bytes(r["sketch"]) for r in rows])
