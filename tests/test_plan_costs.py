"""Cost guard for building the Spark plans.  PySpark 4 wraps every
``Column`` method and ``F.col`` in call-site capture: each call reads a
Spark conf and sets and clears a JVM origin, and the first one in a
process imports IPython when it is installed (about 25 MB of driver
memory).  No public entry point may make such a call, and building a
grouped plan stays within a fixed number of py4j round trips.  Neither
cost changes an answer, so both are counted here rather than timed."""
import numpy as np
import py4j.clientserver
import pyspark.errors.utils
import pytest
from pyspark.sql import functions as F

from repro.spark import aggregate as agg
from repro.spark import udaf

PHIS = [0.01, 0.5, 0.99]
# Built from Column methods, the plans took 228 (group_quantiles) and
# 161 (group_sketches) round trips; built from SQL text, 69 and 73.
MAX_ROUND_TRIPS = 100


@pytest.fixture(scope="module")
def rows(spark):
    rng = np.random.default_rng(4)
    data = list(zip(rng.integers(0, 20, 2_000).tolist(), rng.lognormal(size=2_000).tolist()))
    return spark.createDataFrame(data, "key long, x double")


def _counted(monkeypatch, owner, name):
    """Count the calls to ``owner.name``: one entry per call in the list."""
    calls, fn = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_no_call_site_capture(spark, rows, monkeypatch):
    captures = _counted(monkeypatch, pyspark.errors.utils, "_capture_call_site")
    F.col("x")
    assert len(captures) == 1  # the spy sees a wrapped call
    captures.clear()
    agg.build_sketch(rows, "x", k=8)
    sketches = udaf.group_sketches(rows, ["key"], "x", k=8)
    udaf.group_quantiles(rows, ["key"], "x", PHIS, k=8).collect()
    udaf.merge_group_sketches(sketches)
    assert captures == []


@pytest.mark.parametrize(
    "build",
    [
        lambda df: udaf.group_sketches(df, ["key"], "x"),
        lambda df: udaf.group_quantiles(df, ["key"], "x", PHIS),
    ],
    ids=["group_sketches", "group_quantiles"],
)
def test_grouped_plan_round_trips(spark, rows, monkeypatch, build):
    build(rows)  # warm-up: the first build also pays one-time lookups
    sends = _counted(monkeypatch, py4j.clientserver.ClientServerConnection, "send_command")
    build(rows)
    assert 0 < len(sends) <= MAX_ROUND_TRIPS, len(sends)
