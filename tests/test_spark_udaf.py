"""Grouped-sketch (UDAF shape) tests, oracle-checked and compared with a
per-group ``applyInPandas`` build of the same sketches."""
import hashlib
import math
import re
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
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

    @pytest.mark.parametrize("phis", [[0.5], []], ids=["one", "none"])
    def test_phi_is_double_for_any_fractions(self, spark, li, phis):
        """``array()`` with no arguments has no element type: the plan
        casts it, so no fractions give zero rows of the same schema."""
        out = udaf.group_quantiles(li, ["l_returnflag"], "l_quantity", phis, k=16)
        assert out.schema["phi"].dataType.simpleString() == "double"
        assert out.schema["value"].dataType.simpleString() == "double"
        assert out.count() == len(phis) * li.select("l_returnflag").distinct().count()

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

    @pytest.mark.parametrize(
        "build",
        [udaf.group_sketches, lambda df, keys, col, **kw: udaf.group_quantiles(df, keys, col, [0.5], **kw)],
        ids=["sketches", "quantiles"],
    )
    def test_bad_arguments_rejected_before_spark(self, spark, li, build):
        """A bad ``k``, no key column, a malformed column name or a bad
        ``seed`` raises while the plan is built, not in a Spark task."""
        with pytest.raises(ValueError, match="k must be an even integer >= 2, got 3"):
            build(li, ["l_returnflag"], "l_quantity", k=3)
        with pytest.raises(TypeError, match="integer"):
            build(li, ["l_returnflag"], "l_quantity", k=4.5)
        with pytest.raises(ValueError, match="build_sketch"):
            build(li, [], "l_quantity")
        for name in ["l_quantity..x", "`l_quantity"]:
            with pytest.raises(ValueError, match="column name"):
                build(li, ["l_returnflag"], name)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            build(li, ["l_returnflag"], "l_quantity", seed=-1)
        for seed in [1.5, np.random.SeedSequence(1)]:
            with pytest.raises(TypeError):
                build(li, ["l_returnflag"], "l_quantity", seed=seed)

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


# SHA-256 of ``serde.to_bytes(merge_group_sketches(stored))``, the rollup
# of the ``stored`` fixture's 300 seeded group sketches.  After a deliberate
# change to the merge or to the wire format, regenerate it from the
# repository root with
#   PYTHONPATH=src python -m pytest tests/test_spark_udaf.py -k pinned_digest
# whose failure message is the new digest, and check that
# ``test_rollup_is_sequential_merge_of_blobs`` still passes before pinning it.
# Spark reads the four files largest first, so a change to the blobs' size
# can change the row order, and with it the rollup.
ROLLUP_SHA256 = "6c0c12108471152f8079530475549f92073b373f2c1c22e332f0681531b5496e"


@pytest.fixture(scope="module")
def stored(spark, tmp_path_factory):
    """A stored table of 300 seeded k=8 group sketches in 4 parquet files.
    Group sizes are geometric with mean 60, so about a third of the groups
    passed B = 64 and hold more than one level."""
    rng = np.random.default_rng(12)
    sketches = [
        ReqSketch(8, seed=g).update(rng.lognormal(3.0, 1.5, n))
        for g, n in enumerate(rng.geometric(1 / 60, 300).tolist())
    ]
    assert 50 < sum(sk.num_levels > 1 for sk in sketches) < 250
    blobs = pa.array([serde.to_bytes(sk) for sk in sketches], pa.binary())
    path = tmp_path_factory.mktemp("stored")
    for i, part in enumerate(np.array_split(np.arange(len(sketches)), 4)):
        table = pa.table({"g": part, "sketch": blobs.take(part)})
        pq.write_table(table, path / f"part-{i}.parquet")
    return spark.read.parquet(str(path))


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
        assert serde.to_bytes(merged) == serde.to_bytes(folded)
        out.unpersist()

    def test_pinned_digest(self, spark, stored):
        merged = udaf.merge_group_sketches(stored)
        assert merged.num_levels > 1
        got = hashlib.sha256(serde.to_bytes(merged)).hexdigest()
        assert got == ROLLUP_SHA256, got

    def test_large_binary_collect(self, spark, stored):
        """``toArrow`` returns ``large_binary`` under this conf; the rollup
        reads its 64-bit offsets."""
        key = "spark.sql.execution.arrow.useLargeVarTypes"
        before = spark.conf.get(key, None)
        spark.conf.set(key, "true")
        try:
            assert stored.select("sketch").toArrow().schema.field(0).type == pa.large_binary()
            merged = udaf.merge_group_sketches(stored)
        finally:
            if before is None:
                spark.conf.unset(key)
            else:
                spark.conf.set(key, before)
        assert hashlib.sha256(serde.to_bytes(merged)).hexdigest() == ROLLUP_SHA256

    def test_empty_rollup_rejected(self, spark, li):
        empty = udaf.group_sketches(
            li.filter("l_extendedprice < 0"), ["l_returnflag"], "l_extendedprice"
        )
        with pytest.raises(ValueError):
            udaf.merge_group_sketches(empty)

    def test_null_rows_are_skipped(self, spark, stored):
        """Null sketches, as an outer join leaves them, merge as if absent."""
        rows = [tuple(r) for r in stored.collect()]
        holed = [x for r in rows for x in ([r, (-r[0], None)] if r[0] % 40 == 0 else [r])]
        assert len(holed) > len(rows)
        schema = "g long, sketch binary"
        got = udaf.merge_group_sketches(spark.createDataFrame(holed, schema))
        want = udaf.merge_group_sketches(spark.createDataFrame(rows, schema))
        assert serde.to_bytes(got) == serde.to_bytes(want)
        assert hashlib.sha256(serde.to_bytes(got)).hexdigest() == ROLLUP_SHA256

    def test_all_null_rollup_rejected(self, spark):
        nulls = spark.createDataFrame([(1, None), (2, None)], "g long, sketch binary")
        with pytest.raises(ValueError):
            udaf.merge_group_sketches(nulls)


class TestGroupSeeds:
    """A group's RNG entropy is ``[seed, xxhash64(keys, null flags) mod
    2**64]``, computed by Spark, so it does not depend on the Python
    process or its ``PYTHONHASHSEED``."""

    # key -> (key column types, entropy after the seed)
    PINNED = {
        (1,): (["long"], 15558635447743907059),
        ("A",): (["string"], 8490780497193803110),
        ("N", "O"): (["string", "string"], 10260972197645012081),
        (20240, None): (["long", "string"], 10810924285788341533),
    }

    @pytest.mark.parametrize("key", PINNED, ids=str)
    def test_pinned_entropy(self, spark, key):
        types, entropy = self.PINNED[key]
        names = [f"k{i}" for i in range(len(key))]
        x = np.arange(200.0)
        schema = ", ".join(f"{c} {t}" for c, t in zip(names, types)) + ", x double"
        df = spark.createDataFrame([key + (v,) for v in x.tolist()], schema).coalesce(1)
        (row,) = udaf.group_sketches(df, names, "x", k=4, seed=5).collect()
        want = fill_sketch(4, [5, entropy], [x])
        assert want.num_levels > 1
        assert bytes(row["sketch"]) == serde.to_bytes(want)


@contextmanager
def _conf(spark, settings):
    """Run the block with Spark SQL ``settings``, then restore them."""
    before = {key: spark.conf.get(key, None) for key in settings}
    for key, value in settings.items():
        spark.conf.set(key, value)
    try:
        yield
    finally:
        for key, value in before.items():
            spark.conf.unset(key) if value is None else spark.conf.set(key, value)


def _apply_in_pandas(df, keys, col, phis=None, *, k, seed):
    """A per-group reference: ``applyInPandas`` builds each group's sketch
    in its own Python call, seeded by the key hash Spark computes on each
    row, and ``orderBy`` sorts the answers."""
    def one(key, pdf):
        entropy = [seed, int(np.int64(pdf["key_hash"].iloc[0]).view(np.uint64))]
        sk = fill_sketch(k, entropy, [pdf[col].to_numpy(np.float64, na_value=np.nan)])
        if phis is None:
            return pd.DataFrame([key + (serde.to_bytes(sk), sk.n)], columns=keys + ["sketch", "n"])
        vals = sk.quantiles(phis) if sk.n else [None] * len(phis)
        return pd.DataFrame([key + (p, v) for p, v in zip(phis, vals)], columns=keys + ["phi", "value"])

    tail = "sketch binary, n long" if phis is None else "phi double, value double"
    schema = ", ".join(f"{c} {df.schema[c].dataType.simpleString()}" for c in keys) + ", " + tail
    hashed = df.withColumn("key_hash", F.xxhash64(*keys, *[F.col(c).isNull() for c in keys]))
    out = hashed.groupBy(*keys).applyInPandas(one, schema)
    return out if phis is None else out.orderBy(*keys, "phi")


def _blob_set(out):
    return {tuple(bytes(v) if isinstance(v, bytearray) else v for v in r) for r in out.collect()}


def _pinned(out):
    """``out``'s column names and its rows in sorted order, each sketch
    shown as the first 16 hex digits of its SHA-256."""
    rows = [
        tuple(hashlib.sha256(v).hexdigest()[:16] if isinstance(v, (bytes, bytearray)) else v for v in r)
        for r in out.collect()
    ]
    return out.columns, sorted(rows, key=repr)


class TestKeyRangePass:
    """The one ``groupBy`` pass (the class keeps the name of the key-range
    pass it replaced) answers exactly as a per-group build does, whatever
    the shuffle and batch settings."""

    PHIS = [0.0, 0.01, 0.5, 0.99, 1.0]

    @pytest.fixture(scope="class")
    def mixed(self, spark):
        """String and int key parts with nulls, one group whose values are
        all null, and groups past B = 64 (k=8) that compact."""
        rng = np.random.default_rng(7)
        g = rng.choice(["a", "bb", None], 2_000)
        h = [None if rng.random() < 0.1 else int(v) for v in rng.integers(1, 4, g.size)]
        rows = list(zip(g, h, rng.lognormal(size=g.size).tolist())) + [("zz", 9, None)] * 5
        df = spark.createDataFrame(rows, "g string, h long, x double").cache()
        df.count()
        yield df
        df.unpersist()

    @pytest.mark.parametrize(
        "settings",
        [
            {},
            # more shuffle partitions than the 13 keys, none coalesced
            {"spark.sql.shuffle.partitions": "64", "spark.sql.adaptive.enabled": "false"},
            # many groups to one Arrow batch of 7 group rows
            {"spark.sql.execution.arrow.maxRecordsPerBatch": "7"},
        ],
        ids=["default", "sparse-partitions", "batches-of-7"],
    )
    def test_matches_apply_in_pandas(self, spark, mixed, settings):
        keys = ["g", "h"]
        with _conf(spark, settings):
            got = udaf.group_quantiles(mixed, keys, "x", self.PHIS, k=8, seed=2)
            got = [tuple(r) for r in got.orderBy(*keys, "phi").collect()]
            want = [tuple(r) for r in _apply_in_pandas(mixed, keys, "x", self.PHIS, k=8, seed=2).collect()]
            assert got == want
            assert ("zz", 9, 0.5, None) in got
            sketches = _blob_set(udaf.group_sketches(mixed, keys, "x", k=8, seed=2))
            assert sketches == _blob_set(_apply_in_pandas(mixed, keys, "x", k=8, seed=2))
        assert len(sketches) == 13
        assert max(serde.from_bytes(r[2]).num_levels for r in sketches) > 1

    def test_blob_set_is_the_same_under_any_setting(self, spark, mixed):
        """Shuffle width and Arrow batch size reach neither a group's
        values nor its seed."""
        settings = [
            {},
            {"spark.sql.shuffle.partitions": "64", "spark.sql.adaptive.enabled": "false"},
            {"spark.sql.shuffle.partitions": "1"},
            {"spark.sql.execution.arrow.maxRecordsPerBatch": "3"},
        ]
        blob_sets = []
        for s in settings:
            with _conf(spark, s):
                blob_sets.append(_blob_set(udaf.group_sketches(mixed, ["g", "h"], "x", k=8, seed=2)))
        assert len(blob_sets[0]) == 13
        assert all(b == blob_sets[0] for b in blob_sets[1:])

    def test_key_columns_may_take_any_name_but_the_outputs(self, spark):
        df = spark.createDataFrame([(1, 2, 3, 1.0)], "values long, key_hash long, out long, x double")
        keys = ["values", "key_hash", "out"]
        assert [tuple(r) for r in udaf.group_quantiles(df, keys, "x", [0.5]).collect()] == [(1, 2, 3, 0.5, 1.0)]
        assert [r["n"] for r in udaf.group_sketches(df, keys, "x").collect()] == [1]

    def test_names_with_a_space(self, spark):
        rng = np.random.default_rng(1)
        keys = rng.choice(["a b", "c"], 300).tolist()
        rows = list(zip(keys, rng.lognormal(size=300).round(3).tolist()))
        df = spark.createDataFrame(rows, "`my key` string, `my val` double")
        assert _pinned(udaf.group_quantiles(df, ["my key"], "my val", [0.1, 0.5], k=4, seed=1)) == (
            ["my key", "phi", "value"],
            [("a b", 0.1, 0.246), ("a b", 0.5, 0.8), ("c", 0.1, 0.345), ("c", 0.5, 0.995)],
        )
        assert _pinned(udaf.group_sketches(df, ["my key"], "my val", k=4, seed=1)) == (
            ["my key", "sketch", "n"],
            [("a b", "c35486ebb48499a3", 146), ("c", "da98bf3a1415ddc4", 154)],
        )

    def test_value_column_as_a_key(self, spark):
        df = spark.createDataFrame([(i % 3, float(i % 4)) for i in range(40)], "g long, x double")
        assert _pinned(udaf.group_quantiles(df, ["x"], "x", [0.5], k=4)) == (
            ["x", "phi", "value"],
            [(0.0, 0.5, 0.0), (1.0, 0.5, 1.0), (2.0, 0.5, 2.0), (3.0, 0.5, 3.0)],
        )
        columns, rows = _pinned(udaf.group_sketches(df, ["g", "x"], "x", k=4))
        assert columns == ["g", "x", "sketch", "n"]
        assert rows[:3] == [
            (0, 0.0, "2401bacd96b46460", 4), (0, 1.0, "501ca526f46d1b7c", 3), (0, 2.0, "0d6ed2cb72c0ac20", 3)
        ]
        assert len(rows) == 12

    def test_repeated_key_names(self, spark):
        df = spark.createDataFrame([(i % 3, float(i % 4)) for i in range(40)], "g long, x double")
        assert _pinned(udaf.group_sketches(df, ["g", "g"], "x", k=4, seed=2)) == (
            ["g", "g", "sketch", "n"],
            [(0, 0, "fd4e17d30d6309dd", 14), (1, 1, "a775a426af23af16", 13), (2, 2, "faf6e5e64552dc5f", 13)],
        )
        assert _pinned(udaf.group_quantiles(df, ["g", "g"], "x", [0.5, 1.0], k=4, seed=2)) == (
            ["g", "g", "phi", "value"],
            [(0, 0, 0.5, 1.0), (0, 0, 1.0, 3.0), (1, 1, 0.5, 1.0), (1, 1, 1.0, 3.0), (2, 2, 0.5, 2.0), (2, 2, 1.0, 3.0)],
        )

    def test_backticked_and_dotted_names(self, spark):
        """A backticked key holding a dot and a struct field as the value,
        read as ``df.groupBy`` and ``F.col`` read them."""
        rows = [("k", (float(i),), i % 2) for i in range(10)]
        df = spark.createDataFrame(rows, "`a.b` string, s struct<`f``g`: double>, `c``d` long")
        keys = ["`c``d`", "`a.b`"]
        assert _pinned(udaf.group_quantiles(df, keys, "s.`f``g`", [0.5])) == (
            ["c`d", "a.b", "phi", "value"], [(0, "k", 0.5, 4.0), (1, "k", 0.5, 5.0)]
        )
        assert [(r[0], r["n"]) for r in udaf.group_sketches(df, keys, "s.`f``g`").collect()] == [(0, 5), (1, 5)]

    def test_unsorted_fractions_answer_in_phi_order(self, spark, mixed):
        got = udaf.group_quantiles(mixed, ["g"], "x", [0.9, 0.1, 0.5], k=8).collect()
        assert [r["phi"] for r in got[:3]] == [0.1, 0.5, 0.9]
        assert len({r["g"] for r in got[:3]}) == 1

    def test_int_key_beside_a_null_key_keeps_its_seed(self, spark):
        """Group ``2`` is seeded as in a column with no null, and longs
        past 2**53 stay apart.  Every group holds the same values, so a
        blob depends on its seed and not on the row order."""
        big = 2 ** 60
        rows = [(g, 1.5) for g in (2, big, big + 1) for _ in range(300)] + [(None, 1.0)]
        df = spark.createDataFrame(rows, "g long, x double")
        got = {r["g"]: bytes(r["sketch"]) for r in udaf.group_sketches(df, ["g"], "x", k=8, seed=3).collect()}
        assert set(got) == {None, 2, big, big + 1}
        (alone,) = udaf.group_sketches(df.filter("g = 2"), ["g"], "x", k=8, seed=3).collect()
        assert got[2] == bytes(alone["sketch"])
        assert serde.from_bytes(got[2]).num_levels > 1
        assert len({got[2], got[big], got[big + 1]}) == 3

    def test_null_flags_keep_swapped_keys_apart(self, spark):
        """``xxhash64`` skips nulls, so ``(null, "a")`` and ``("a", null)``
        hash alike on the keys alone; the null flags tell them apart."""
        rows = [(a, b, 1.5) for a, b in ((None, "a"), ("a", None)) for _ in range(300)]
        df = spark.createDataFrame(rows, "p string, q string, x double")
        blobs = [bytes(r["sketch"]) for r in udaf.group_sketches(df, ["p", "q"], "x", k=8).collect()]
        assert len(blobs) == 2 and blobs[0] != blobs[1]

    @pytest.mark.parametrize("dtype", ["double", "float"])
    @pytest.mark.parametrize("batch", ["10000", "3"])
    def test_float_keys_group_as_group_by(self, spark, dtype, batch):
        """-0.0 joins 0.0 and every NaN is one group, as in ``groupBy``;
        a NaN key stays NaN and a null key stays null."""
        keys = [-0.0, 0.0, float("nan"), None, 1.5, 0.0, -0.0]
        df = spark.createDataFrame([(g, float(i)) for i, g in enumerate(keys * 9)], f"g {dtype}, x double")

        def canon(v):
            return "null" if v is None else "nan" if math.isnan(v) else repr(v)

        want = sorted((canon(r["g"]), r["count"]) for r in df.groupBy("g").count().collect())
        with _conf(spark, {"spark.sql.execution.arrow.maxRecordsPerBatch": batch}):
            sketches = udaf.group_sketches(df, ["g"], "x").collect()
            answers = udaf.group_quantiles(df, ["g"], "x", [0.5]).collect()
        assert sorted((canon(r["g"]), r["n"]) for r in sketches) == want
        assert Counter(canon(r["g"]) for r in answers) == Counter(["null", "0.0", "1.5", "nan"])

    @pytest.mark.parametrize(
        "dtype, pinned",
        [
            ("double", ["68730c0bf72f7ba8", "44457ea564fcb1a1", "5893d2a05fae6014", "6f7e1e33c7fa922c"]),
            ("float", ["342ea98a14bd415e", "9c432a5d83cf3929", "5893d2a05fae6014", "3fed6225fe61ee12"]),
        ],
    )
    def test_float_key_seeds_are_pinned(self, spark, dtype, pinned):
        """A float group is seeded by its grouped key: ``-0.0`` and ``0.0``
        share the seed of one group, as every NaN does."""
        keys = [-0.0, 0.0, float("nan"), None, 1.5]
        df = spark.createDataFrame([(g, 1.5) for _ in range(150) for g in keys], f"g {dtype}, x double")
        _, rows = _pinned(udaf.group_sketches(df, ["g"], "x", k=4))
        assert rows == [(0.0, pinned[0], 300), (1.5, pinned[1], 150), (None, pinned[2], 150)] + [rows[-1]]
        assert math.isnan(rows[-1][0]) and rows[-1][1:] == (pinned[3], 150)

    def test_plan_runs_python_once(self, spark, li):
        """One Python evaluation after Spark's own aggregation: no range
        partitioning, no per-group or per-partition Python, no sort."""
        for out in (
            udaf.group_quantiles(li, ["l_returnflag", "l_linestatus"], "l_quantity", [0.5, 0.1]),
            udaf.group_sketches(li, ["l_returnflag"], "l_quantity"),
        ):
            plan = out._jdf.queryExecution().executedPlan().toString()
            assert len(re.findall(r"\bArrowEvalPython\b", plan)) == 1, plan
            assert "rangepartitioning" not in plan, plan
            assert not re.search(r"MapInPandas|FlatMapGroupsInPandas|\bSort\b", plan), plan
