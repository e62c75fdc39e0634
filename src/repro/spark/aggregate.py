"""Distributed sketch builders — the paper's mergeability put to work.

Every Spark sketch is built by one executor-side function,
``fill_sketch``: drop nulls/NaN, start an empty sketch with the
template's parameters and a seeded RNG, ``update`` with each Arrow
batch.  Algorithm 4's merge is full, so any merge tree keeps the
guarantee (App. C) and the dataflow only chooses where merges run:

* ``build_sketch(..., method="map_partitions")`` — ``mapInPandas``
  emits one partial per non-empty partition as bytes; the driver merges
  the partials in a balanced binary tree (``merge_balanced``).  T4 also
  folds the same partials left to right (``merge_sequential``).
* ``build_sketch(..., method="tree_aggregate")`` — the same partial
  blobs merged on executors by ``RDD.treeReduce`` (decode, merge,
  encode) with ``depth`` combiner levels; only the root reaches the
  driver.  ``depth=1`` is the left fold in partition order.
* ``repro.spark.udaf`` — one sketch per group inside ``applyInPandas``,
  answered or emitted in the task that builds it.

Randomness: a partition's sketch is seeded by SeedSequence([seed,
partition_id]) so distributed builds are reproducible and partitions are
independent (the paper's guarantee needs independent coin flips, not a
shared RNG).
"""
from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np
import pandas as pd
from pyspark import TaskContext
from pyspark.sql import DataFrame

from repro.core import serde
from repro.core.req_sketch import ReqSketch


def fill_sketch(
    template: ReqSketch, entropy: Sequence[int], columns: Iterable[pd.Series]
) -> ReqSketch:
    """The executor-side builder behind every Spark shape.

    An empty sketch with ``template``'s parameters and an RNG seeded by
    ``SeedSequence(entropy)``, updated with the non-null values of each
    column chunk in turn.
    """
    sk = ReqSketch(
        template.k,
        schedule=template.schedule,
        khat=template._khat,
        k_const=template._k_const,
    )
    sk.rng = np.random.default_rng(np.random.SeedSequence(entropy))
    for chunk in columns:
        vals = chunk.to_numpy(dtype=np.float64, na_value=np.nan)
        sk.update(vals[~np.isnan(vals)])
    return sk


def _partial_blobs(df: DataFrame, col: str, template: ReqSketch, seed: int) -> DataFrame:
    """``sketch binary``: one serialized partial per non-empty partition."""

    def build(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pid = TaskContext.get().partitionId()
        sk = fill_sketch(template, [seed, pid], (pdf[col] for pdf in batches))
        if sk.n:
            yield pd.DataFrame({"sketch": [serde.to_bytes(sk)]})

    return df.select(col).mapInPandas(build, schema="sketch binary")


def partition_sketches(
    df: DataFrame, col: str, *, template: ReqSketch, seed: int = 0
) -> List[ReqSketch]:
    """One partial REQ sketch per non-empty partition, in partition order."""
    out = _partial_blobs(df, col, template, seed).collect()
    return [serde.from_bytes(row["sketch"]) for row in out]


def merge_balanced(sketches: List[ReqSketch]) -> ReqSketch:
    """Merge partials pairwise in rounds — a balanced binary merge tree.

    Matches the merge topology of a parallel reduction, the shape
    App. C's "arbitrary merge tree" analysis must survive.
    """
    if not sketches:
        raise ValueError("no partial sketches to merge (empty input?)")
    layer = list(sketches)
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(layer[i].merge(layer[i + 1]))
        if len(layer) % 2 == 1:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def merge_sequential(sketches: List[ReqSketch]) -> ReqSketch:
    """Left-fold merge — the most unbalanced merge tree (worst case)."""
    if not sketches:
        raise ValueError("no partial sketches to merge (empty input?)")
    acc = sketches[0]
    for sk in sketches[1:]:
        acc = acc.merge(sk)
    return acc


def _merge_blobs(a: bytes, b: bytes) -> bytes:
    return serde.to_bytes(serde.from_bytes(a).merge(serde.from_bytes(b)))


def build_sketch(
    df: DataFrame,
    col: str,
    *,
    k: int = 32,
    seed: int = 0,
    schedule: str = "req",
    khat: Optional[float] = None,
    k_const: int = 2 ** 5,
    method: str = "map_partitions",
    depth: int = 2,
) -> ReqSketch:
    """Build a REQ sketch of ``df[col]`` with the chosen merge placement.

    ``method``: "map_partitions" (partials merged on the driver by
    ``merge_balanced``) or "tree_aggregate" (partials merged on
    executors by ``treeReduce``).
    ``depth``: treeReduce depth (tree_aggregate only).
    """
    template = ReqSketch(k, schedule=schedule, khat=khat, k_const=k_const)
    if method == "tree_aggregate":
        # treeReduce raises ValueError on an empty RDD (no rows).
        blobs = _partial_blobs(df, col, template, seed).rdd.map(lambda r: r[0])
        return serde.from_bytes(blobs.treeReduce(_merge_blobs, depth))
    if method != "map_partitions":
        raise ValueError(f"unknown method {method!r}")
    return merge_balanced(partition_sketches(df, col, template=template, seed=seed))
