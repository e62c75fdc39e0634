"""Cost guard for rolling up stored group sketches: decoding a blob
builds no random generator, merging a small sketch does not copy it, a
column of never-compacted blobs is folded without a sketch or a merge
per blob, and ``merge_group_sketches`` collects its blobs through Arrow
from a plan with no Python stage and folds them as one column.  Each
regression would cost the rollup a large share of its time (a Python
stage alone costs about a third of a second of fixed latency) without
changing a single answer, so it is counted or checked here rather than
timed."""
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark import udaf
from repro.spark.aggregate import merge_sequential


def _group_blobs(count=200, k=32, seed=3):
    """Serialized group sketches of at most B/2 items each (never compacted)."""
    rng = np.random.default_rng(seed)
    half_b = ReqSketch(k).B // 2
    blobs = []
    for g in range(count):
        sk = ReqSketch(k, seed=g).update(rng.lognormal(3.0, 1.5, int(rng.integers(1, half_b + 1))))
        assert sk.num_levels == 1
        blobs.append(serde.to_bytes(sk))
    return blobs


def _count_calls(monkeypatch, points):
    """Count the calls of each ``(owner, name)`` in ``points``."""
    counts = {name: 0 for _, name in points}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in points:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return counts


ROLLUP_CALLS = [(ReqSketch, "copy"), (ReqSketch, "merge"), (serde, "from_bytes"), (np.random, "default_rng")]


def test_rollup_builds_one_generator_and_copies_nothing(monkeypatch):
    blobs = _group_blobs()
    counts = _count_calls(monkeypatch, [(ReqSketch, "copy"), (np.random, "default_rng")])
    sketches = [serde.from_bytes(b) for b in blobs]
    assert counts == {"copy": 0, "default_rng": 0}
    total = sum(sk.n for sk in sketches)
    merged = merge_sequential(sketches)
    assert merged.n == total
    assert merged.num_levels > 1  # the accumulator compacted: it drew
    assert counts == {"copy": 0, "default_rng": 1}


def test_column_rollup_builds_one_generator_and_merges_nothing(monkeypatch):
    """The 200 never-compacted blobs are appended to the accumulator's
    level 0 in runs: no blob is decoded alone or merged."""
    blobs = _group_blobs()
    want = serde.to_bytes(merge_sequential([serde.from_bytes(b) for b in blobs]))
    counts = _count_calls(monkeypatch, ROLLUP_CALLS)
    merged = serde.merge_column(pa.array(blobs, pa.binary()))
    assert merged.num_levels > 1  # the accumulator compacted: it drew
    assert counts.pop("from_bytes") <= 1  # the accumulator's, at most
    assert counts == {"copy": 0, "merge": 0, "default_rng": 1}
    assert serde.to_bytes(merged) == want


def test_rollup_collects_through_arrow_with_no_python_stage(spark, monkeypatch, tmp_path):
    blobs = _group_blobs(count=50)
    pq.write_table(pa.table({"sketch": pa.array(blobs, pa.binary())}), tmp_path / "part-0.parquet")
    stored = spark.read.parquet(str(tmp_path))
    # The concrete class: patching ``pyspark.sql.DataFrame`` would miss
    # the methods the classic DataFrame overrides.
    cls = type(stored)
    collects, plans = [], []
    to_arrow = cls.toArrow

    def spy(self):
        plans.append(self._jdf.queryExecution().executedPlan().toString())
        return to_arrow(self)

    monkeypatch.setattr(cls, "collect", lambda self: collects.append(self))
    monkeypatch.setattr(cls, "toArrow", spy)
    want = sum(serde.from_bytes(b).n for b in blobs)
    counts = _count_calls(monkeypatch, ROLLUP_CALLS[:3])
    merged = udaf.merge_group_sketches(stored)
    assert merged.n == want
    assert collects == []
    assert counts["copy"] == counts["merge"] == 0 and counts["from_bytes"] <= 1
    (plan,) = plans
    assert "isnotnull(sketch" in plan, plan
    # ArrowEvalPython, BatchEvalPython, MapInPandas, MapInArrow and the
    # grouped pandas operators: any of them starts Python workers.
    assert not re.search(r"EvalPython|InPandas|InArrow", plan), plan
