"""Grouped-sketch (applyInPandas UDAF shape) tests, oracle-checked."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.oracle import assert_equivalent
from repro.spark import udaf
from repro.spark.aggregate import fill_sketch, merge_sequential


@pytest.fixture(scope="module")
def li(spark):
    df = sd.lineitem(spark, sf=0.002, seed=3).cache()
    df.count()
    return df


class TestGroupSketches:
    def test_one_row_per_group(self, spark, li):
        out = udaf.group_sketches(li, ["l_returnflag"], "l_extendedprice", k=16, seed=1)
        rows = out.collect()
        flags = {r["l_returnflag"] for r in rows}
        assert flags == {"N", "R", "A"}

    def test_group_counts_match_sql(self, spark, li):
        """The sketch's n per group == COUNT(*) — checked against DuckDB."""
        out = udaf.group_sketches(li, ["l_returnflag"], "l_extendedprice", k=16, seed=2)
        got = out.select("l_returnflag", F.col("n").alias("cnt")).orderBy("l_returnflag")
        assert_equivalent(
            got,
            "SELECT l_returnflag, COUNT(*) AS cnt FROM li GROUP BY l_returnflag "
            "ORDER BY l_returnflag",
            li=li,
        )

    def test_sketches_deserializable_and_weighted(self, spark, li):
        out = udaf.group_sketches(li, ["l_returnflag"], "l_extendedprice", k=16, seed=3)
        for r in out.collect():
            sk = serde.from_bytes(r["sketch"])
            assert sk.total_weight() == r["n"]

    def test_multi_column_group(self, spark, li):
        out = udaf.group_sketches(
            li, ["l_returnflag", "l_linestatus"], "l_extendedprice", k=16, seed=4
        )
        assert out.count() == li.select("l_returnflag", "l_linestatus").distinct().count()


class TestGroupQuantiles:
    def test_within_relative_tolerance_of_duckdb(self, spark, li):
        """Estimated per-group quantiles sit at a *rank* within eps-ish of
        the target rank (the paper's guarantee is on ranks, not values)."""
        phis = [0.01, 0.5, 0.99]
        out = udaf.group_quantiles(
            li, ["l_returnflag"], "l_extendedprice", phis, k=32, seed=5
        ).collect()
        pdf = li.toPandas()
        for r in out:
            grp = pdf[pdf["l_returnflag"] == r["l_returnflag"]]["l_extendedprice"]
            n = len(grp)
            true_rank = (grp <= r["value"]).sum()
            target = r["phi"] * n
            assert abs(true_rank - target) <= max(0.05 * target, 40), (
                r["l_returnflag"], r["phi"], true_rank, target
            )

    def test_output_schema(self, spark, li):
        out = udaf.group_quantiles(li, ["l_returnflag"], "l_quantity", [0.5], k=16)
        assert out.columns == ["l_returnflag", "phi", "value"]

    def test_answers_are_the_group_sketch_quantiles(self, spark, li):
        """Each answer equals the query of the matching group_sketches row."""
        phis = [0.0, 0.01, 0.5, 0.99, 1.0]
        keys = ["l_returnflag", "l_linestatus"]
        got = udaf.group_quantiles(li, keys, "l_extendedprice", phis, k=16, seed=7)
        answers = {}
        for r in got.collect():
            answers.setdefault((r["l_returnflag"], r["l_linestatus"]), []).append(r["value"])
        sketches = udaf.group_sketches(li, keys, "l_extendedprice", k=16, seed=7)
        rows = sketches.collect()
        assert len(rows) == len(answers)
        for r in rows:
            want = serde.from_bytes(r["sketch"]).quantiles(phis)
            assert answers[(r["l_returnflag"], r["l_linestatus"])] == list(want)

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_bad_fraction_rejected_before_spark(self, spark, li, bad):
        with pytest.raises(ValueError):
            udaf.group_quantiles(li, ["l_returnflag"], "l_quantity", [0.5, bad])

    def test_all_null_group_answers_null(self, spark):
        pdf = pd.DataFrame({"g": ["a", "a", "a", "b", "b"], "x": [1.0, 2.0, 3.0, None, None]})
        df = spark.createDataFrame(pdf, schema="g string, x double")
        out = udaf.group_quantiles(df, ["g"], "x", [0.0, 1.0], k=8)
        assert out.schema["value"].nullable
        assert [tuple(r) for r in out.collect()] == [
            ("a", 0.0, 1.0), ("a", 1.0, 3.0), ("b", 0.0, None), ("b", 1.0, None)
        ]
        counts = {r["g"]: r["n"] for r in udaf.group_sketches(df, ["g"], "x").collect()}
        assert counts == {"a": 3, "b": 0}


class TestRollup:
    def test_merge_groups_equals_global(self, spark, li):
        """Rolling up per-group sketches gives a valid global sketch."""
        out = udaf.group_sketches(li, ["l_returnflag"], "l_extendedprice", k=16, seed=6)
        merged = udaf.merge_group_sketches(out)
        assert merged.total_weight() == li.count()
        # Global median from rolled-up sketch lands near the true median.
        pdf = li.toPandas()["l_extendedprice"]
        est = merged.quantile(0.5)
        true_rank = (pdf <= est).sum()
        assert abs(true_rank - 0.5 * len(pdf)) <= 0.05 * len(pdf)

    def test_rollup_is_sequential_merge_of_blobs(self, spark, li):
        keys = ["l_returnflag", "l_linestatus"]
        out = udaf.group_sketches(li, keys, "l_extendedprice", k=16, seed=8).cache()
        merged = udaf.merge_group_sketches(out)
        folded = merge_sequential([serde.from_bytes(r["sketch"]) for r in out.collect()])
        qs = np.linspace(0, 1e5, 41)
        assert np.array_equal(merged.ranks(qs), folded.ranks(qs))
        assert merged.num_retained() == folded.num_retained()
        out.unpersist()

    def test_empty_rollup_rejected(self, spark, li):
        empty = udaf.group_sketches(
            li.filter("l_extendedprice < 0"), ["l_returnflag"], "l_extendedprice"
        )
        with pytest.raises(ValueError):
            udaf.merge_group_sketches(empty)


class TestGroupSeeds:
    """A group's RNG entropy is a 4-byte BLAKE2b digest of each key part,
    so it does not depend on the process's ``PYTHONHASHSEED``."""

    # key -> entropy after the seed, one value per key part
    PINNED = {
        (1,): [120362236],
        ("A",): [2473737391],
        ("N", "O"): [1546723501, 590930483],
        (20240, None): [1102864055, 2152912699],
    }

    @pytest.mark.parametrize("key", PINNED, ids=str)
    def test_pinned_entropy(self, key):
        pdf = pd.DataFrame({"x": np.arange(200.0)})
        template = ReqSketch(4)
        got = udaf._group_sketch(key, pdf, "x", template, seed=5)
        want = fill_sketch(template, [5] + self.PINNED[key], [pdf["x"]])
        assert serde.to_bytes(got) == serde.to_bytes(want)
