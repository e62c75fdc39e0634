"""Spark-SQL ground truth for accuracy experiments: exact ranks.

``exact_ranks`` computes exact inclusive ranks R(y) = |{x : x <= y}| for
a list of query points with a single Spark aggregation (no per-query
scans).  Its SQL twin ``exact_ranks_sql`` is what the tests feed to
``repro.oracle.assert_equivalent`` so the ground truth itself is
validated against DuckDB before any sketch is judged against it.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def queries_df(df: DataFrame, queries: Sequence[float]) -> DataFrame:
    return df.sparkSession.createDataFrame([(float(q),) for q in queries], "y double")


def exact_ranks(df: DataFrame, col: str, queries: Sequence[float]) -> DataFrame:
    """DataFrame ``(y, rank)`` with exact inclusive ranks of each query.

    Implemented as a cross join + conditional count so Catalyst plans a
    single shuffle over the data regardless of how many queries there
    are.  Broadcast of the tiny query table is explicitly requested
    (the session default disables auto-broadcast).
    """
    q = F.broadcast(queries_df(df, queries))
    joined = df.select(F.col(col).alias("x")).crossJoin(q)
    return (
        joined.groupBy("y")
        .agg(F.sum(F.when(F.col("x") <= F.col("y"), 1).otherwise(0)).alias("rank"))
        .orderBy("y")
    )


def exact_ranks_sql(table: str, col: str, queries: Sequence[float]) -> str:
    """DuckDB SQL computing the same (y, rank) frame, for the oracle."""
    vals = ", ".join(f"({float(q)!r})" for q in queries)
    return (
        f"SELECT q.y AS y, "
        f"SUM(CASE WHEN t.{col} <= q.y THEN 1 ELSE 0 END) AS rank "
        f"FROM {table} t CROSS JOIN (VALUES {vals}) AS q(y) "
        f"GROUP BY q.y ORDER BY q.y"
    )
