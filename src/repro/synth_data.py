"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
the full-size T4 table uses SF=0.1. Generators are deterministic in
``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# --------------------------------------------------------------------------
# Stream generators for the quantile-sketch experiments (REQ reproduction).
# Pure-numpy variants (for driver-side streaming tests) plus Spark wrappers.
# The "permutation" stream takes values 1..n so that true rank == value,
# making ground truth trivial; "lognormal" models the long-tailed latency
# distributions that motivate relative-error quantiles; the sorted streams
# are the adversarial orders for compactor schedules.


def stream_array(kind: str, n: int, *, seed: int = 0) -> np.ndarray:
    """A length-n numpy stream of the given kind.

    Kinds: ``permutation`` (shuffled 1..n), ``sorted`` (1..n ascending),
    ``reversed`` (n..1), ``uniform`` (U[0,1)), ``lognormal``
    (heavy-tailed latencies, mu=3 sigma=1.5), ``zipf_values``
    (power-law magnitudes).
    """
    g = _rng(seed)
    if kind == "permutation":
        return g.permutation(n).astype(np.float64) + 1.0
    if kind == "sorted":
        return np.arange(1, n + 1, dtype=np.float64)
    if kind == "reversed":
        return np.arange(n, 0, -1, dtype=np.float64)
    if kind == "uniform":
        return g.random(n)
    if kind == "lognormal":
        return g.lognormal(mean=3.0, sigma=1.5, size=n)
    if kind == "zipf_values":
        ranks = g.integers(1, max(2, n // 10), size=n).astype(np.float64)
        return ranks ** -1.2 * 1e6
    raise ValueError(f"unknown stream kind {kind!r}")


def stream_df(
    spark: SparkSession,
    kind: str,
    n: int,
    *,
    seed: int = 0,
    num_partitions: int | None = None,
) -> DataFrame:
    """The same stream as a single-column Spark DataFrame ``x``.

    ``num_partitions`` controls how the stream is split for distributed
    builds (mergeability experiments sweep it).
    """
    arr = stream_array(kind, n, seed=seed)
    df = spark.createDataFrame(pd.DataFrame({"x": arr}))
    if num_partitions is not None:
        df = df.repartition(num_partitions)
    return df
