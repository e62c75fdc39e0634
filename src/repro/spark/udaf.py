"""Grouped sketching — the "UDAF" usage shape, in one key-range pass.

``repartitionByRange`` sends each key range to one task, and
``sortWithinPartitions`` makes every group a contiguous run of rows
there.  One ``mapInPandas`` task walks the runs of its Arrow batches,
carrying the open group across a batch boundary (so memory stays bounded
by the largest group), and builds each group's sketch with
``aggregate.fill_sketch`` (the builder every Spark shape shares), seeded
from the group key.  Python runs once per task, not once per group, and
emits one frame per batch.  What the task returns depends on the call:

* ``group_sketches`` — the serialized sketch and its ``n`` per group,
  i.e. ``SELECT key, REQ_SKETCH(x) ... GROUP BY key``;
* ``group_quantiles`` — the exploded ``(keys..., phi, value)`` answers,
  evaluated in the task, so no sketch leaves the executor;
* ``merge_group_sketches`` rolls a table of group sketches up into one
  on the driver.

Ordering: the range partitions come out in key order and each task
emits its groups in run order, so ``collect()`` and ``toPandas()``
return the rows in ``(group_cols, phi)`` order (Spark's sort order:
nulls first, NaN last) with no global ``orderBy``.  A later
transformation that shuffles may reorder them.

Keys group as in ``df.groupBy``: ``-0.0`` and ``0.0`` are one group,
emitted as ``0.0``, every NaN is one group, and null is its own group.

Why not a real Catalyst UDAF: PySpark's pandas GROUPED_AGG UDFs cannot
carry partial aggregation state across partitions (no merge hook), and
a JVM ``TypedImperativeAggregate`` needs a Scala build, which this
pure-Python package does not have (see DESIGN.md).
"""
from __future__ import annotations

import hashlib
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import serde
from repro.core.estimator import check_fractions
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import fill_sketch, merge_sequential

# A finished group: its key as ``applyInPandas`` passes it, and its values.
Group = Tuple[tuple, np.ndarray]


def _group_sketch(key: tuple, values, k: int, seed: int) -> ReqSketch:
    """The per-group build: ``fill_sketch`` of the group's ``values`` (a
    pandas Series or a float64 array) seeded by the group key.

    Each key part contributes a 4-byte BLAKE2b digest of ``str(v)``, which,
    unlike ``hash``, is the same in every process.
    """
    entropy = [seed] + [
        int.from_bytes(hashlib.blake2b(str(v).encode(), digest_size=4).digest(), "little")
        for v in key
    ]
    return fill_sketch(k, entropy, [values])


def _same_key(a: np.ndarray, za: np.ndarray, b: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Row-wise key-part equality as Spark groups: nulls (``za``/``zb``)
    are equal, NaN equals NaN, and ``-0.0 == 0.0``."""
    return (za == zb) & (za | (a == b) | ((a != a) & (b != b)))


class _KeyColumns:
    """How the pass ships the key columns and reads them back.

    Key part ``i`` travels as ``k{i}`` and ``z{i}`` (is null).  pandas
    reads a null int or float as NaN, and an int column holding a null
    as float64, where longs past 2**53 lose digits; so a numeric key
    travels as ``coalesce(c, 0)``, keeping its exact dtype, and ``z{i}``
    tells a null apart from a NaN.
    """

    def __init__(self, df: DataFrame, group_cols: List[str]) -> None:
        self.names = list(group_cols)
        self.fields = [df.schema[c] for c in group_cols]
        self.numeric = [
            isinstance(f.dataType, (T.IntegralType, T.FloatType, T.DoubleType))
            for f in self.fields
        ]

    def select(self) -> list:
        cols = []
        for i, (c, f, num) in enumerate(zip(self.names, self.fields, self.numeric)):
            k = F.coalesce(F.col(c), F.lit(0).cast(f.dataType)) if num else F.col(c)
            cols += [k.alias(f"k{i}"), F.col(c).isNull().alias(f"z{i}")]
        return cols

    def run_starts(self, pdf: pd.DataFrame) -> np.ndarray:
        """Row indices where a new key run starts in a key-sorted batch."""
        new = np.zeros(len(pdf), dtype=bool)
        new[0] = True
        for i in range(len(self.names)):
            a, z = pdf[f"k{i}"].to_numpy(), pdf[f"z{i}"].to_numpy()
            new[1:] |= ~_same_key(a[1:], z[1:], a[:-1], z[:-1])
        return np.flatnonzero(new)

    def read(self, firsts: pd.DataFrame, repeat: int) -> Tuple[List[tuple], dict]:
        """Each group's key as ``applyInPandas`` passes it (which seeds the
        sketch), and the output key columns, each group's row repeated
        ``repeat`` times."""
        rows = np.repeat(np.arange(len(firsts)), repeat)
        parts, out = [], {}
        for i, (c, num) in enumerate(zip(self.names, self.numeric)):
            k, z = firsts[f"k{i}"], firsts[f"z{i}"].to_numpy()
            if num:
                # Spark groups -0.0 with 0.0 and emits 0.0; x + 0 maps -0.0 to 0.0.
                vals = k.to_numpy() + k.dtype.type(0)
                # applyInPandas sees a null group's column as all-NaN float64.
                parts.append([np.float64("nan") if n else v for v, n in zip(vals, z)])
                # Arrow-backed, so Spark keeps a NaN key apart from a null one.
                out[c] = pd.arrays.ArrowExtensionArray(pa.array(vals[rows], mask=z[rows]))
            else:
                parts.append(k.tolist())
                out[c] = k.iloc[rows].reset_index(drop=True)
        return list(zip(*parts)), out


def _closed_groups(
    batches: Iterator[pd.DataFrame], keys: _KeyColumns
) -> Iterator[Tuple[pd.DataFrame, List[np.ndarray]]]:
    """Walk the key runs of key-sorted batches; per batch, yield the
    groups that closed in it: the key columns of each one's first row
    and its values (float64, NaN for null).

    The last run of a batch stays open, since the next batch may carry
    it on; it closes at the first row with another key or at the end.
    A group's values reach its sketch as one array, as they did through
    ``applyInPandas``: ``update`` in pieces can grow N at another fill
    level and so give another sketch.
    """
    open_first, open_chunks = None, []
    for pdf in batches:
        if pdf.empty:
            continue
        x = pdf["v"].to_numpy(dtype=np.float64, na_value=np.nan)
        starts = keys.run_starts(pdf)
        ends = np.append(starts[1:], len(pdf))
        firsts, chunks = [], []
        if open_first is not None:
            # Does the batch's first row carry on the open group?
            if keys.run_starts(pd.concat([open_first, pdf.iloc[:1]])).size == 1:
                open_chunks.append(x[: ends[0]])
                starts, ends = starts[1:], ends[1:]
                if not starts.size:
                    continue
            firsts.append(open_first)
            chunks.append(np.concatenate(open_chunks))
        firsts.append(pdf.iloc[starts[:-1]])
        chunks += [x[s:e] for s, e in zip(starts[:-1], ends[:-1])]
        open_first, open_chunks = pdf.iloc[starts[-1:]], [x[starts[-1]:]]
        if chunks:
            yield pd.concat(firsts), chunks
    if open_first is not None:
        yield open_first, [np.concatenate(open_chunks)]


def _key_range_pass(
    df: DataFrame,
    group_cols: List[str],
    value_col: str,
    out_fields: List[T.StructField],
    emit: Callable[[List[Group], dict], pd.DataFrame],
    repeat: int,
) -> DataFrame:
    """One ``mapInPandas`` pass over key-sorted range partitions.

    ``emit(groups, out)`` turns a batch's closed groups and their output
    key columns (each row repeated ``repeat`` times) into one frame.
    """
    keys = _KeyColumns(df, group_cols)
    schema = T.StructType(keys.fields + out_fields)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for firsts, chunks in _closed_groups(batches, keys):
            parts, out = keys.read(firsts, repeat)
            yield emit(list(zip(parts, chunks)), out)

    return (
        df.repartitionByRange(*group_cols)
        .sortWithinPartitions(*group_cols)
        .select(*keys.select(), F.col(value_col).alias("v"))
        .mapInPandas(run, schema=schema)
    )


def group_sketches(
    df: DataFrame,
    group_cols: List[str],
    value_col: str,
    *,
    k: int = 32,
    seed: int = 0,
) -> DataFrame:
    """One REQ sketch per group: columns ``group_cols + [sketch, n]``."""

    def emit(groups: List[Group], out: dict) -> pd.DataFrame:
        sketches = [_group_sketch(key, vals, k, seed) for key, vals in groups]
        out["sketch"] = [serde.to_bytes(sk) for sk in sketches]
        out["n"] = np.array([sk.n for sk in sketches], dtype=np.int64)
        return pd.DataFrame(out)

    fields = [
        T.StructField("sketch", T.BinaryType(), False),
        T.StructField("n", T.LongType(), False),
    ]
    return _key_range_pass(df, group_cols, value_col, fields, emit, repeat=1)


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
    ``k`` and ``seed``), evaluated in the task that builds it, one row
    per fraction in ascending ``phi`` order.  A group with no non-null
    value answers ``value = null``, as ``percentile_approx`` does.
    """
    phis = np.sort(check_fractions(phis), kind="stable")
    no_answer = np.full(phis.size, np.nan)

    def emit(groups: List[Group], out: dict) -> pd.DataFrame:
        answers = []
        for key, vals in groups:
            sk = _group_sketch(key, vals, k, seed)
            answers.append(sk.quantiles(phis) if sk.n else no_answer)
        out["phi"] = np.tile(phis, len(groups))
        out["value"] = np.concatenate(answers)
        return pd.DataFrame(out)

    fields = [
        T.StructField("phi", T.DoubleType(), False),
        T.StructField("value", T.DoubleType(), True),
    ]
    return _key_range_pass(df, group_cols, value_col, fields, emit, repeat=phis.size)


def merge_group_sketches(sketch_df: DataFrame) -> ReqSketch:
    """Merge every group's sketch into one — mergeability across GROUP BY.

    Demonstrates that per-group summaries can be rolled up to the global
    summary without touching the raw data (paper's mergeability pitch).
    """
    rows = sketch_df.select("sketch").collect()
    return merge_sequential([serde.from_bytes(r["sketch"]) for r in rows])
