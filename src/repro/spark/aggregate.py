"""Distributed sketch builders — the paper's mergeability put to work.

Every Spark sketch is built by one executor-side function,
``fill_sketch``: drop nulls/NaN, start an empty ``ReqSketch(k)`` with a
seeded RNG, ``update`` with each Arrow batch of ``_as_double``'s column.
Algorithm 4's merge is full, so any merge tree keeps the guarantee
(App. C) and the dataflow only chooses where merges run:

* ``build_sketch(..., method="map_partitions")`` — ``mapInArrow``
  emits one partial per non-empty partition as bytes; the driver merges
  the partials in a balanced binary tree (``merge_balanced``).  T4 also
  folds the same partials left to right (``merge_sequential``).
* ``build_sketch(..., method="tree_aggregate")`` — the same partial
  blobs merged on executors by ``RDD.treeReduce`` (decode, merge,
  encode) with ``depth`` combiner levels; only the root reaches the
  driver.  ``depth=1`` is the left fold in partition order.
* ``repro.spark.udaf`` — one sketch per group, built by an Arrow UDF
  over ``groupBy``'s collected values and answered or emitted where it
  is built.

Randomness: a partition's sketch is seeded by SeedSequence([seed,
partition_id]) so distributed builds are reproducible and partitions are
independent (the paper's guarantee needs independent coin flips, not a
shared RNG).
"""
from __future__ import annotations

import operator
import re
from typing import Iterable, Iterator, List, Sequence

import numpy as np
import pyarrow as pa
from pyspark import TaskContext
from pyspark.sql import DataFrame

from repro.core import serde
from repro.core.req_sketch import ReqSketch


# One part of a column name as Spark's attribute-name parser reads it: a
# backticked run, in which a doubled backtick stands for one, or a run of
# anything but dots and backticks.
_PART = r"`(?:[^`]|``)*`|[^.`]+"
_NAME = re.compile(rf"(?:{_PART})(?:\.(?:{_PART}))*")


def _sql_name(name: str) -> str:
    """``name`` as SQL text that resolves as the column name ``name``
    does in ``df.groupBy(name)``: the same parts, each backticked."""
    if not _NAME.fullmatch(name):
        raise ValueError(f"syntax error in the column name {name!r}")
    return ".".join(p if p[0] == "`" else f"`{p}`" for p in re.findall(_PART, name))


def _as_double(col: str) -> str:
    """SQL text for ``col`` as a DOUBLE, the one cast every Spark shape
    reads values through: a timestamp counts seconds, a boolean 0 or 1."""
    return f"CAST({_sql_name(col)} AS DOUBLE)"


def fill_sketch(k: int, entropy: Sequence[int], columns: Iterable[np.ndarray]) -> ReqSketch:
    """The executor-side builder behind every Spark shape.

    An empty ``ReqSketch(k)`` with an RNG seeded by
    ``SeedSequence(entropy)``, updated with each float64 array of
    ``columns`` in turn, less its NaNs, which stand for nulls.  The
    generator is built only when the sketch first compacts or is encoded
    (``ReqSketch.rng``), so a group that never fills level 0 never builds
    one.
    """
    sk = ReqSketch(k, seed=np.random.SeedSequence(entropy))
    for chunk in columns:
        sk.update(chunk[~np.isnan(chunk)])
    return sk


def check_build(k: int, seed: int) -> None:
    """Raise on the driver what ``fill_sketch`` would raise in a task for
    ``k`` and the ``[seed, ...]`` entropy: the ``ReqSketch`` constructor's
    error for a bad ``k`` (``TypeError`` for one that is not an integer)
    or a negative seed, and ``TypeError`` for a seed that is not an int
    (``SeedSequence([seed, 0])`` takes only non-negative ints, where the
    constructor also takes a ``SeedSequence``)."""
    ReqSketch(k, seed=operator.index(seed))


def _partial_blobs(df: DataFrame, col: str, k: int, seed: int) -> DataFrame:
    """``sketch binary``: one serialized partial per non-empty partition.

    A bad ``k`` or ``seed`` raises here, on the driver, not in a task
    (``check_build``)."""
    check_build(k, seed)

    def build(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        pid = TaskContext.get().partitionId()
        sk = fill_sketch(k, [seed, pid], (b.column(0).to_numpy(zero_copy_only=False) for b in batches))
        if sk.n:
            yield pa.record_batch([pa.array([serde.to_bytes(sk)], pa.binary())], ["sketch"])

    return df.selectExpr(_as_double(col)).mapInArrow(build, schema="sketch binary")


def partition_sketches(
    df: DataFrame, col: str, *, k: int = 32, seed: int = 0
) -> List[ReqSketch]:
    """One partial REQ sketch per non-empty partition, in partition order."""
    out = _partial_blobs(df, col, k, seed).collect()
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
    method: str = "map_partitions",
    depth: int = 2,
) -> ReqSketch:
    """Build a REQ sketch of ``df[col]`` with the chosen merge placement.

    ``method``: "map_partitions" (partials merged on the driver by
    ``merge_balanced``) or "tree_aggregate" (partials merged on
    executors by ``treeReduce``).
    ``depth``: treeReduce depth (tree_aggregate only).
    """
    if method == "tree_aggregate":
        # treeReduce raises ValueError on an empty RDD (no rows).
        blobs = _partial_blobs(df, col, k, seed).rdd.map(lambda r: r[0])
        return serde.from_bytes(blobs.treeReduce(_merge_blobs, depth))
    if method != "map_partitions":
        raise ValueError(f"unknown method {method!r}")
    return merge_balanced(partition_sketches(df, col, k=k, seed=seed))
