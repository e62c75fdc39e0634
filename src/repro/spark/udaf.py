"""Grouped sketching — the "UDAF" usage shape, on Spark's own ``groupBy``.

``df.groupBy(keys)`` collects each group's values, cast to DOUBLE as in
every shape, into one array (``collect_list``, which drops nulls), and
one scalar Arrow UDF cuts each group's slice from the list array's flat
values and builds its sketch with ``aggregate.fill_sketch`` (the builder
every Spark shape shares).  What the UDF returns depends on the call:

* ``group_sketches`` — the serialized sketch and its ``n`` per group,
  i.e. ``SELECT key, REQ_SKETCH(x) ... GROUP BY key``;
* ``group_quantiles`` — the answers at the sorted fractions, exploded to
  ``(keys..., phi, value)`` rows, so no sketch leaves the executor;
* ``merge_group_sketches`` rolls a table of group sketches up into one
  on the driver: Spark drops null ``sketch`` rows, the column comes back
  in one Arrow collect (``toArrow``), and ``serde.merge_column``
  validates every blob in one vectorized pass over the Arrow buffers
  and folds them left to right, appending each run of small
  never-compacted sketches to level 0 at once.  Its plan has no Python
  operator, so it pays none of a Python stage's fixed latency.

The key columns never reach Python: Spark groups them and carries them
through, so keys group and come out exactly as in ``df.groupBy`` (one
group for ``-0.0`` and ``0.0``, one for every NaN, one for null, longs
exact).  A group's RNG entropy is ``[seed, xxhash64(keys, key is null
flags) mod 2**64]``, computed by Spark on the grouped keys; the null
flags keep ``(null, "a")`` apart from ``("a", null)``, which
``xxhash64`` alone, skipping nulls, would not.

The plans are built from SQL text (``F.expr``) and plain column names,
with no ``Column`` method and no ``F.col``.  PySpark 4 records the Python
call site of each such call: a conf read and a JVM origin set and clear
per call, and on the first call in a process an ``import IPython`` when
it is installed (about 25 MB of driver memory).  Built this way, a
grouped plan takes about 70 py4j round trips instead of 160-230.  A name
that goes into SQL text is quoted part by part (``_sql_name``), so it
resolves as ``df.groupBy`` resolves it.

Ordering: a group's rows are adjacent and in ascending ``phi``, but the
groups come back in no particular order.  Add
``orderBy(*group_cols, "phi")`` where a global order is needed.

Why not a real Catalyst UDAF: PySpark's GROUPED_AGG UDFs cannot
carry partial aggregation state across partitions (no merge hook), and
a JVM ``TypedImperativeAggregate`` needs a Scala build, which this
pure-Python package does not have (see DESIGN.md).  So a group's values
are held whole in its ``collect_list`` until its sketch is built.
"""
from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import serde
from repro.core.estimator import check_fractions
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import _as_double, _sql_name, check_build, fill_sketch


def _group_rows(df: DataFrame, group_cols: List[str], value_col: str) -> DataFrame:
    """One row per group: its keys, its values as one ``array<double>``
    (``_values``) and the hash that seeds its sketch (``_key_hash``).
    The underscores keep them apart from key columns such as ``values``."""
    keys = [_sql_name(c) for c in group_cols]
    flags = [f"isnull({c})" for c in keys]
    return df.groupBy(*group_cols).agg(
        F.expr(f"collect_list({_as_double(value_col)}) AS _values"),
        F.expr(f"xxhash64({', '.join(keys + flags)}) AS _key_hash"),
    )


def _sketches(values: pa.ListArray, key_hash: pa.Int64Array, k: int, seed: int) -> List[ReqSketch]:
    """The per-group build over one batch of group rows."""
    flat = values.values.to_numpy(zero_copy_only=False)
    ends = values.offsets.to_numpy()
    hashes = key_hash.to_numpy().view(np.uint64)
    return [fill_sketch(k, [seed, int(h)], [flat[a:b]]) for a, b, h in zip(ends[:-1], ends[1:], hashes)]


def _per_group(
    df: DataFrame,
    group_cols: List[str],
    value_col: str,
    k: int,
    seed: int,
    udf: Callable,
    return_type: str,
) -> DataFrame:
    """The group rows with ``_values`` replaced by ``udf(_values,
    _key_hash)``.  Replacing a column adds no name: ``withColumn`` with a
    new name would replace a key column that held it.

    Raises ``ValueError`` for no key column, and ``check_build``'s error
    for a bad ``k`` or ``seed``, here, before Spark runs anything."""
    if not group_cols:
        raise ValueError("group_cols is empty; build_sketch sketches a whole column")
    check_build(k, seed)
    out = F.arrow_udf(udf, return_type)("_values", "_key_hash")
    return _group_rows(df, group_cols, value_col).withColumn("_values", out)


def group_sketches(
    df: DataFrame,
    group_cols: List[str],
    value_col: str,
    *,
    k: int = 32,
    seed: int = 0,
) -> DataFrame:
    """One REQ sketch per group: columns ``group_cols + [sketch, n]``."""

    def build(values: pa.Array, key_hash: pa.Array) -> pa.Array:
        sketches = _sketches(values, key_hash, k, seed)
        blobs = pa.array([serde.to_bytes(sk) for sk in sketches], pa.binary())
        ns = pa.array([sk.n for sk in sketches], pa.int64())
        return pa.StructArray.from_arrays([blobs, ns], ["sketch", "n"])

    out = _per_group(df, group_cols, value_col, k, seed, build, "sketch binary, n long")
    return out.select(*group_cols, "_values.sketch", "_values.n")


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
    ``k`` and ``seed``), evaluated where it is built, one row per
    fraction in ascending ``phi`` order.  A group with no non-null value
    answers ``value = null``, as ``percentile_approx`` does.
    """
    phis = np.sort(check_fractions(phis), kind="stable")
    no_answer = [None] * phis.size

    def answer(values: pa.Array, key_hash: pa.Array) -> pa.Array:
        sketches = _sketches(values, key_hash, k, seed)
        answers = [sk.quantiles(phis) if sk.n else no_answer for sk in sketches]
        return pa.array(answers, pa.list_(pa.float64()))

    out = _per_group(df, group_cols, value_col, k, seed, answer, "array<double>")
    # ``repr`` round-trips a float; the ``D`` suffix makes it a DOUBLE
    # literal, where a bare ``0.5`` would be a DECIMAL.  The cast types
    # the array when ``phis`` is empty, as ``array()`` alone has no
    # element type.
    phi = f"CAST(array({', '.join(f'{p!r}D' for p in phis.tolist())}) AS ARRAY<DOUBLE>)"
    return out.select(*group_cols, F.expr(f"inline(arrays_zip({phi}, _values)) AS (phi, value)"))


def merge_group_sketches(sketch_df: DataFrame) -> ReqSketch:
    """Merge every group's sketch into one — mergeability across GROUP BY.

    Rolls per-group summaries up to the global summary without touching
    the raw data (paper's mergeability pitch): the ``sketch`` column is
    collected once through Arrow, in partition order as ``collect()``
    returns it, decoded as one column and folded left to right
    (``serde.merge_column``), byte for byte as ``merge_sequential`` of
    the decoded blobs.  Rows whose ``sketch`` is null, as an outer join
    leaves them, are skipped by a filter Spark runs, as SQL aggregates
    and ``percentile_approx`` skip nulls.  Raises ``ValueError`` for a
    malformed blob (``from_bytes``'s error) and when no non-null sketch
    is left.
    """
    # A SQL string, not a Column method: see the module docstring.
    blobs = sketch_df.select("sketch").where("sketch IS NOT NULL").toArrow()
    return serde.merge_column(blobs.column(0))
