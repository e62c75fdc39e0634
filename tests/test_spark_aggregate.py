"""Distributed-build tests: partition partials, merge trees, treeAggregate."""
import hashlib
from datetime import datetime, timezone
from decimal import Decimal

import numpy as np
import pytest

from repro import synth_data as sd
from repro.baselines.exact import ExactRanks, relative_errors
from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark import aggregate as agg
from repro.spark import udaf

N = 40_000


@pytest.fixture(scope="module")
def stream(spark):
    arr = sd.stream_array("permutation", N, seed=0)
    df = sd.stream_df(spark, "permutation", N, seed=0, num_partitions=8).cache()
    df.count()
    return arr, df


class TestPartitionSketches:
    def test_one_sketch_per_nonempty_partition(self, spark, stream):
        _, df = stream
        parts = agg.partition_sketches(df, "x", k=16, seed=1)
        assert 1 <= len(parts) <= 8
        assert sum(p.n for p in parts) == N

    def test_partials_weight_conserved(self, spark, stream):
        _, df = stream
        parts = agg.partition_sketches(df, "x", k=16, seed=2)
        assert all(p.total_weight() == p.n for p in parts)

    def test_deterministic_given_seed_and_layout(self, spark, stream):
        _, df = stream
        a = agg.partition_sketches(df, "x", k=16, seed=3)
        b = agg.partition_sketches(df, "x", k=16, seed=3)
        qs = np.linspace(1, N, 20)
        ra = agg.merge_balanced(a).ranks(qs)
        rb = agg.merge_balanced(b).ranks(qs)
        assert np.array_equal(ra, rb)

    def test_nulls_skipped(self, spark):
        import pandas as pd

        pdf = pd.DataFrame({"x": [1.0, None, 3.0, None, 5.0]})
        df = spark.createDataFrame(pdf)
        parts = agg.partition_sketches(df, "x", k=8, seed=4)
        assert sum(p.n for p in parts) == 3


class TestMergeShapes:
    def test_balanced_weight(self, spark, stream):
        _, df = stream
        sk = agg.build_sketch(df, "x", k=16, seed=5)
        assert sk.total_weight() == N

    def test_sequential_weight(self, spark, stream):
        _, df = stream
        parts = agg.partition_sketches(df, "x", k=16, seed=6)
        assert agg.merge_sequential(parts).total_weight() == N

    def test_merge_helpers_reject_empty(self):
        with pytest.raises(ValueError):
            agg.merge_balanced([])
        with pytest.raises(ValueError):
            agg.merge_sequential([])

    def test_accuracy_balanced(self, spark, stream):
        arr, df = stream
        sk = agg.build_sketch(df, "x", k=32, seed=7)
        ex = ExactRanks(arr)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(N), 25).astype(int), 1, N))
        ys = ex.values_at_ranks(ranks)
        rel = relative_errors(sk.ranks(ys), ex.ranks(ys))
        assert rel.max() < 0.06, rel.max()

    def test_accuracy_matches_driver_build(self, spark, stream):
        """Distributed error in the same band as a single-stream build."""
        arr, df = stream
        ex = ExactRanks(arr)
        ranks = np.unique(np.clip(np.logspace(1, np.log10(N), 20).astype(int), 1, N))
        ys = ex.values_at_ranks(ranks)
        true = ex.ranks(ys)
        dist = agg.build_sketch(df, "x", k=32, seed=8)
        drv = ReqSketch(32, seed=8).update(arr)
        rel_d = relative_errors(dist.ranks(ys), true).max()
        rel_s = relative_errors(drv.ranks(ys), true).max()
        assert rel_d < 0.06 and rel_s < 0.06

    def test_bad_method_rejected(self, spark, stream):
        _, df = stream
        with pytest.raises(ValueError):
            agg.build_sketch(df, "x", method="bogus")

    @pytest.mark.parametrize("method", ["map_partitions", "tree_aggregate"])
    def test_bad_k_rejected_before_a_job(self, spark, stream, method):
        """The constructor's ``ValueError``, raised on the driver."""
        _, df = stream
        tracker = spark.sparkContext.statusTracker()
        jobs = tracker.getJobIdsForGroup()
        with pytest.raises(ValueError, match="k must be an even integer >= 2, got 3"):
            agg.build_sketch(df, "x", k=3, method=method)
        with pytest.raises(TypeError, match="integer"):
            agg.build_sketch(df, "x", k=4.5, method=method)
        assert tracker.getJobIdsForGroup() == jobs

    @pytest.mark.parametrize("method", ["map_partitions", "tree_aggregate"])
    @pytest.mark.parametrize(
        "seed, error", [(-1, ValueError), (1.5, TypeError), (np.random.SeedSequence(1), TypeError)]
    )
    def test_bad_seed_rejected_before_a_job(self, spark, stream, method, seed, error):
        """The error a task would raise, raised on the driver instead.  A
        ``SeedSequence`` seeds a ``ReqSketch`` but cannot be an entry of
        the executors' ``[seed, partition_id]`` entropy."""
        _, df = stream
        tracker = spark.sparkContext.statusTracker()
        jobs = tracker.getJobIdsForGroup()
        with pytest.raises(error):
            agg.build_sketch(df, "x", seed=seed, method=method)
        assert tracker.getJobIdsForGroup() == jobs


class TestTreeAggregate:
    def test_weight_and_accuracy(self, spark):
        n = 5_000
        arr = sd.stream_array("permutation", n, seed=9)
        df = sd.stream_df(spark, "permutation", n, seed=9, num_partitions=6)
        sk = agg.build_sketch(df, "x", k=16, seed=10, method="tree_aggregate")
        assert sk.total_weight() == n
        ex = ExactRanks(arr)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(n), 15).astype(int), 1, n))
        ys = ex.values_at_ranks(ranks)
        rel = relative_errors(sk.ranks(ys), ex.ranks(ys))
        assert rel.max() < 0.1, rel.max()

    def test_depth_variants(self, spark):
        n = 3_000
        df = sd.stream_df(spark, "uniform", n, seed=11, num_partitions=6)
        for depth in (1, 2, 3):
            sk = agg.build_sketch(
                df, "x", k=16, seed=12, method="tree_aggregate", depth=depth
            )
            assert sk.total_weight() == n

    def test_depth_one_equals_sequential_merge(self, spark, stream):
        """treeReduce at depth 1 folds the same partials, in the same
        order, as the driver's sequential merge: bit-identical answers."""
        _, df = stream
        tree = agg.build_sketch(df, "x", k=16, seed=14, method="tree_aggregate", depth=1)
        seq = agg.merge_sequential(
            agg.partition_sketches(df, "x", k=16, seed=14)
        )
        qs = np.linspace(0, N, 41)
        assert np.array_equal(tree.ranks(qs), seq.ranks(qs))
        assert tree.num_retained() == seq.num_retained()

    def test_empty_input_raises(self, spark):
        import pandas as pd

        df = spark.createDataFrame(pd.DataFrame({"x": [1.0]})).filter("x > 2")
        with pytest.raises(ValueError):
            agg.build_sketch(df, "x", method="tree_aggregate")

    def test_empty_input_raises_map_partitions(self, spark):
        import pandas as pd

        df = spark.createDataFrame(pd.DataFrame({"x": [1.0]})).filter("x > 2")
        with pytest.raises(ValueError):
            agg.build_sketch(df, "x", method="map_partitions")


class TestPinnedBytes:
    """A Spark build's bytes are fixed by its input, layout, ``k`` and
    ``seed``: a refactor of the builders must not change them."""

    DIGESTS = {
        "map_partitions": "b1acbada5c39980944cc221fd2bb6feb38b0b176ae05bbb1cc9989e387e61fb6",
        "tree_aggregate": "0447277a384efb21d5b7142fa23e604087fb8f7878c04e421712f8f641abb162",
    }

    @pytest.mark.parametrize("method", sorted(DIGESTS))
    def test_build_bytes_pinned(self, spark, method):
        from pyspark.sql import functions as F

        df = spark.range(0, 50_000, 1, 4).select(
            ((F.col("id") * 7919) % 50_000).cast("double").alias("x")
        )
        sk = agg.build_sketch(df, "x", k=16, seed=5, method=method, depth=2)
        assert sk.n == 50_000 and sk.num_levels > 1
        assert hashlib.sha256(serde.to_bytes(sk)).hexdigest() == self.DIGESTS[method]

    def test_build_bytes_do_not_depend_on_arrow_batch_size(self, spark):
        """``fill_sketch`` updates once per Arrow batch; the batch size
        must not reach the bytes.  With k=32 the bound N grows at item
        65 537, just before the batch boundary at 197 * 333 = 65 601."""
        from pyspark.sql import functions as F

        df = spark.range(0, 100_000, 1, 1).select(
            ((F.col("id") * 7919) % 100_000).cast("double").alias("x")
        )
        key = "spark.sql.execution.arrow.maxRecordsPerBatch"
        before = spark.conf.get(key)
        blobs = []
        try:
            for batch in ("10000", "333"):
                spark.conf.set(key, batch)
                blobs.append(serde.to_bytes(agg.build_sketch(df, "x", k=32, seed=5)))
        finally:
            spark.conf.set(key, before)
        assert serde.from_bytes(blobs[0]).N > 65_536
        assert blobs[0] == blobs[1]


# value column type -> (its values, the level-0 items every shape keeps)
VALUE_TYPES = {
    "double": ("double", [1.5, float("nan"), None, -2.0], [-2.0, 1.5]),
    "float": ("float", [0.5, -1.25, 3.0], [-1.25, 0.5, 3.0]),
    "bigint": ("bigint", [2 ** 53 + 1, None, -7], [-7.0, 2.0 ** 53]),
    "decimal": ("decimal(38,2)", [Decimal("12345.67"), Decimal("-0.01")], [-0.01, 12345.67]),
    "boolean": ("boolean", [True, False, True], [0.0, 1.0, 1.0]),
    "timestamp": ("timestamp", [datetime(2020, 1, 1, tzinfo=timezone.utc), None], [1577836800.0]),
}


class TestValueTypes:
    """Spark casts the value column to DOUBLE once, in the same way for
    every shape, so a column's type reaches no shape differently: a null
    or a NaN is no item, a timestamp counts seconds, a boolean 0 or 1."""

    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    def test_every_shape_keeps_the_same_items(self, spark, name):
        dtype, values, items = VALUE_TYPES[name]
        df = spark.createDataFrame([(0, v) for v in values], f"g int, x {dtype}")
        sketches = [agg.build_sketch(df, "x", k=8, method=m) for m in ("map_partitions", "tree_aggregate")]
        (row,) = udaf.group_sketches(df, ["g"], "x", k=8).collect()
        sketches.append(serde.from_bytes(row["sketch"]))
        assert row["n"] == len(items)
        for sk in sketches:
            ((_, level0),) = sk.level_arrays()
            assert sk.n == len(items)
            assert np.sort(level0).tolist() == items


class TestTpchColumn:
    def test_lineitem_price_sketch(self, spark):
        li = sd.lineitem(spark, sf=0.002, seed=1)
        vals = li.toPandas()["l_extendedprice"].to_numpy()
        sk = agg.build_sketch(li.repartition(4), "l_extendedprice", k=32, seed=13)
        assert sk.total_weight() == len(vals)
        ex = ExactRanks(vals)
        ranks = np.unique(
            np.clip(np.logspace(0, np.log10(len(vals)), 15).astype(int), 1, len(vals))
        )
        ys = ex.values_at_ranks(ranks)
        rel = relative_errors(sk.ranks(ys), ex.ranks(ys))
        assert rel.max() < 0.08, rel.max()
