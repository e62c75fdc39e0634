"""Distributed-build tests: partition partials, merge trees, treeAggregate."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.baselines.exact import ExactRanks, relative_errors
from repro.core.req_sketch import ReqSketch
from repro.spark import aggregate as agg

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
        parts = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=1)
        assert 1 <= len(parts) <= 8
        assert sum(p.n for p in parts) == N

    def test_partials_weight_conserved(self, spark, stream):
        _, df = stream
        parts = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=2)
        assert all(p.total_weight() == p.n for p in parts)

    def test_deterministic_given_seed_and_layout(self, spark, stream):
        _, df = stream
        a = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=3)
        b = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=3)
        qs = np.linspace(1, N, 20)
        ra = agg.merge_balanced(a).ranks(qs)
        rb = agg.merge_balanced(b).ranks(qs)
        assert np.array_equal(ra, rb)

    def test_nulls_skipped(self, spark):
        import pandas as pd

        pdf = pd.DataFrame({"x": [1.0, None, 3.0, None, 5.0]})
        df = spark.createDataFrame(pdf)
        parts = agg.partition_sketches(df, "x", template=ReqSketch(8), seed=4)
        assert sum(p.n for p in parts) == 3


class TestMergeShapes:
    def test_balanced_weight(self, spark, stream):
        _, df = stream
        sk = agg.build_sketch(df, "x", k=16, seed=5)
        assert sk.total_weight() == N

    def test_sequential_weight(self, spark, stream):
        _, df = stream
        parts = agg.partition_sketches(df, "x", template=ReqSketch(16), seed=6)
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
            agg.partition_sketches(df, "x", template=ReqSketch(16), seed=14)
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
