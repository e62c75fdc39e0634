"""The benchmark's four workloads.

Each workload makes its input from the run seed, writes it where the
program reads it, runs one closed-loop job at a time, checks the answers
against numpy truth (``gate``), and measures the reachable-floor
yardsticks (``refs``). The program is called only through its public
functions and receives only the generated data.

* ``global``  - ``build_sketch`` over a parquet column, then
  ``quantiles``: executor-side insert and compaction above the Spark
  scan floor.
* ``grouped`` - ``group_quantiles`` over Zipf-keyed rows: per-group
  Spark, serde and driver work; most groups never compact.
* ``rollup``  - ``merge_group_sketches`` over a stored table of
  serialized group sketches: decode and merge.
* ``stream``  - driver-only ``ReqSketch.update`` in batches with a p99
  ``quantile`` and a ``rank`` read after every batch: inserts and point
  queries side by side, no Spark.
"""
from __future__ import annotations

import os
import shutil
import time
from statistics import median
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark import aggregate, udaf

from gate import Verdict, check_grid, check_quantiles, check_sketch

PHIS = (0.5, 0.9, 0.99, 0.999)
PERCENTILE_APPROX_ACCURACY = 10000
REF_REPS = 3
# Point calls timed on the answer sketch(es) after every untraced job,
# half quantile(0.99) and half rank(y). Spreading them over the run keeps
# a short burst of load on the machine from deciding the percentiles;
# with two jobs or more, p99 has more than ten samples beyond it.
PROBE_CALLS = 600


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def lognormal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Latency-like values: lognormal(3, 1.5)."""
    return rng.lognormal(3.0, 1.5, n)


def zipf_keys(rng: np.random.Generator, rows: int, keys: int, s: float = 1.1) -> np.ndarray:
    """Group keys 0..keys-1 drawn with P(key=i) proportional to (i+1)^-s."""
    p = np.arange(1, keys + 1, dtype=np.float64) ** -s
    return rng.choice(keys, size=rows, p=p / p.sum()).astype(np.int64)


def write_parquet(path: str, columns: Dict[str, np.ndarray], files: int) -> None:
    """Replace ``path`` with ``files`` parquet files holding ``columns``."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    n = len(next(iter(columns.values())))
    bounds = np.linspace(0, n, files + 1).astype(np.int64)
    for i in range(files):
        lo, hi = bounds[i], bounds[i + 1]
        table = pa.table({c: v[lo:hi] for c, v in columns.items()})
        pq.write_table(table, os.path.join(path, f"part-{i:03d}.parquet"))


def group_slices(keys: np.ndarray, vals: np.ndarray):
    """(unique keys, per-group sorted values) from parallel key/value arrays."""
    order = np.lexsort((vals, keys))
    ks, xs = keys[order], vals[order]
    uniq, start, cnt = np.unique(ks, return_index=True, return_counts=True)
    return uniq, [xs[s : s + c] for s, c in zip(start, cnt)]


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def timed_median(fn, reps: int = REF_REPS) -> float:
    return median(timed(fn) for _ in range(reps))


def probe_queries(sk, ys: np.ndarray, calls: int = PROBE_CALLS) -> List[int]:
    """Latency (ns) of alternating ``quantile(0.99)`` and ``rank(y)`` calls."""
    out = []
    for i in range(calls // 2):
        t0 = time.perf_counter_ns()
        sk.quantile(0.99)
        t1 = time.perf_counter_ns()
        sk.rank(float(ys[i % ys.size]))
        t2 = time.perf_counter_ns()
        out += [t1 - t0, t2 - t1]
    return out


def small_group_share(sizes: np.ndarray, k: int) -> float:
    """Share of groups no larger than B/2: answered exactly, never compacted."""
    return float(np.mean(sizes <= ReqSketch(k).B // 2))


class Workload:
    """One workload. ``setup`` may run several times; ``job`` is the timed call."""

    name = ""
    needs_spark = True
    # Sizes per scale; "tiny" is for the benchmark's own tests.
    SIZES: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.size = self.SIZES[scale]
        self.spark = None
        self.answer_sketches: List = []

    def setup(self, spark, data_dir: str) -> None:
        raise NotImplementedError

    def prepare_truth(self) -> None:
        """Numpy truth for the gate; not part of the system's set-up."""

    def job(self):
        raise NotImplementedError

    def check(self, result) -> Verdict:
        raise NotImplementedError

    def latencies(self, result) -> List[int]:
        """Point-query latencies (ns) of the job's answer: timed inside the
        job where it makes point calls itself, else by a probe after it."""
        return probe_queries(self.answer_sketches[0], self.probe_ys)

    def ingest_seconds(self, result, job_s: float) -> float:
        """Time one job spent taking in its input."""
        return job_s

    def verify(self) -> Optional[Verdict]:
        """Once-per-run verification before the timed jobs, if any."""
        return None

    def records(self) -> int:
        """Input records one job consumes."""
        raise NotImplementedError

    def refs(self) -> Dict[str, float]:
        return {}

    def props(self) -> Dict[str, float]:
        return {}

    def replay_input(self):
        """Data for ``replay``, fetched outside the traced job."""
        return None

    def replay(self, data) -> None:
        """Driver-side replay of executor work, for the traced run."""

    def retained_and_bytes(self):
        sks = self.answer_sketches
        return (
            sum(sk.num_retained() for sk in sks),
            sum(len(serde.to_bytes(sk)) for sk in sks),
        )


class GlobalBuild(Workload):
    name = "global"
    SIZES = {"full": {"rows": 2_000_000, "files": 8}, "tiny": {"rows": 20_000, "files": 2}}
    K = 64

    def setup(self, spark, data_dir):
        self.spark = spark
        self.x = lognormal(_rng(self.seed, 1), self.size["rows"])
        path = os.path.join(data_dir, "global")
        write_parquet(path, {"x": self.x}, self.size["files"])
        self.df = spark.read.schema("x double").parquet(path)

    def prepare_truth(self):
        self.sorted = np.sort(self.x)
        self.probe_ys = self.sorted[check_grid(self.sorted.size) - 1]

    def job(self):
        sk = aggregate.build_sketch(self.df, "x", k=self.K)
        return sk, sk.quantiles(list(PHIS))

    def check(self, result):
        sk, q = result
        self.answer_sketches = [sk]
        v = check_sketch(sk, self.sorted)
        qv = check_quantiles(q, PHIS, self.sorted, exact=False)
        for p in qv.problems:
            v.fail(p)
        return v

    def records(self):
        return self.size["rows"]

    def refs(self):
        from pyspark.sql import functions as F

        def noop(batches):
            n = 0
            for pdf in batches:
                n += len(pdf)
            yield pd.DataFrame({"n": [n]})

        return {
            "ref.noop_floor_s": timed_median(
                lambda: self.df.select("x").mapInPandas(noop, "n long").collect()
            ),
            "ref.percentile_approx_s": timed_median(
                lambda: self.df.select(
                    F.percentile_approx("x", list(PHIS), PERCENTILE_APPROX_ACCURACY)
                ).collect()
            ),
            "ref.single_thread_build_s": timed_median(
                lambda: ReqSketch(self.K).update(self.x)
            ),
        }

    def props(self):
        return {
            "rows": self.size["rows"],
            "files": self.size["files"],
            "partitions": self.df.rdd.getNumPartitions(),
        }

    def replay_input(self) -> pd.DataFrame:
        """The scan's rows tagged with the Spark partition that reads them."""
        from pyspark.sql import functions as F

        return self.df.withColumn("pid", F.spark_partition_id()).toPandas()

    def replay(self, pdf: pd.DataFrame) -> None:
        """Each partition's ``update`` batches and ``to_bytes``, serially,
        seeded as ``build_sketch`` seeds partition ``pid``."""
        batch = int(self.spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"))
        for pid, part in pdf.groupby("pid", sort=True):
            vals = part["x"].to_numpy()
            sk = ReqSketch(self.K)
            sk.rng = np.random.default_rng(np.random.SeedSequence([0, int(pid)]))
            for lo in range(0, vals.size, batch):
                sk.update(vals[lo : lo + batch])
            serde.to_bytes(sk)


class Grouped(Workload):
    name = "grouped"
    SIZES = {
        "full": {"rows": 40_000, "keys": 200, "files": 4},
        "tiny": {"rows": 4_000, "keys": 40, "files": 2},
    }
    K = 32

    def setup(self, spark, data_dir):
        self.spark = spark
        rng = _rng(self.seed, 2)
        self.keys = zipf_keys(rng, self.size["rows"], self.size["keys"])
        self.x = lognormal(rng, self.size["rows"])
        path = os.path.join(data_dir, "grouped")
        write_parquet(path, {"key": self.keys, "x": self.x}, self.size["files"])
        self.df = spark.read.schema("key long, x double").parquet(path)

    def prepare_truth(self):
        uniq, groups = group_slices(self.keys, self.x)
        self.truth = dict(zip(uniq.tolist(), groups))
        self.sizes = np.array([g.size for g in groups])
        self.half_b = ReqSketch(self.K).B // 2

    def job(self):
        return udaf.group_quantiles(self.df, ["key"], "x", list(PHIS), k=self.K).collect()

    def check(self, rows):
        v = Verdict()
        got: Dict[int, List[float]] = {}
        for r in rows:
            got.setdefault(r["key"], []).append((r["phi"], r["value"]))
        if set(got) != set(self.truth):
            v.fail(f"{len(got)} groups answered, {len(self.truth)} expected")
            return v
        for key, answers in got.items():
            answers.sort()
            phis = [p for p, _ in answers]
            if phis != list(PHIS):
                v.fail(f"group {key}: answered phis {phis}")
                continue
            vals = self.truth[key]
            gv = check_quantiles(
                [a for _, a in answers], PHIS, vals, exact=vals.size <= self.half_b
            )
            for p in gv.problems:
                v.fail(f"group {key}: {p}")
        return v

    def verify(self):
        """Collect the group sketches themselves and gate every one."""
        rows = udaf.group_sketches(self.df, ["key"], "x", k=self.K).collect()
        v = Verdict()
        sketches, self.blob_bytes = [], 0
        for r in rows:
            sk = serde.from_bytes(r["sketch"])
            self.blob_bytes += len(r["sketch"])
            vals = self.truth.get(r["key"])
            if vals is None or r["n"] != vals.size:
                v.fail(f"group {r['key']}: n {r['n']} does not match the input")
                continue
            gv = check_sketch(sk, vals)
            for p in gv.problems:
                v.fail(f"group {r['key']}: {p}")
            v.max_rel_err = max(v.max_rel_err, gv.max_rel_err)
            sketches.append((sk, vals))
        if len(rows) != len(self.truth):
            v.fail(f"{len(rows)} group sketches, {len(self.truth)} groups")
        self.answer_sketches = [sk for sk, _ in sketches]
        self._probe_pairs = sketches
        return v

    def latencies(self, rows):
        # Cycle over the groups so small and large sketches are both probed.
        pairs, lat = self._probe_pairs, []
        for i in range(PROBE_CALLS // 2):
            sk, vals = pairs[i % len(pairs)]
            lat += probe_queries(sk, vals, calls=2)
        return lat

    def records(self):
        return self.size["rows"]

    def retained_and_bytes(self):
        return sum(sk.num_retained() for sk in self.answer_sketches), self.blob_bytes

    def refs(self):
        from pyspark.sql import functions as F

        def noop(key, pdf):
            return pd.DataFrame({"key": [key[0]], "n": [len(pdf)]})

        return {
            "ref.noop_floor_s": timed_median(
                lambda: self.df.groupBy("key").applyInPandas(noop, "key long, n long").collect()
            ),
            "ref.percentile_approx_s": timed_median(
                lambda: self.df.groupBy("key")
                .agg(F.percentile_approx("x", list(PHIS), PERCENTILE_APPROX_ACCURACY))
                .collect()
            ),
        }

    def props(self):
        return {
            "rows": self.size["rows"],
            "keys_drawn_from": self.size["keys"],
            "groups": len(self.truth),
            "largest_group": int(self.sizes.max()),
            "udaf.small_group_share": small_group_share(self.sizes, self.K),
            "partitions": self.df.rdd.getNumPartitions(),
        }


class Rollup(Workload):
    name = "rollup"
    SIZES = {
        "full": {"rows": 120_000, "keys": 3_000, "files": 4},
        "tiny": {"rows": 4_000, "keys": 60, "files": 2},
    }
    K = 32

    def setup(self, spark, data_dir):
        self.spark = spark
        rng = _rng(self.seed, 3)
        keys = zipf_keys(rng, self.size["rows"], self.size["keys"])
        self.x = lognormal(rng, self.size["rows"])
        uniq, groups = group_slices(keys, self.x)
        blobs, ns = [], []
        for key, vals in zip(uniq.tolist(), groups):
            sk = ReqSketch(self.K)
            sk.rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3, key]))
            sk.update(vals)
            blobs.append(serde.to_bytes(sk))
            ns.append(vals.size)
        self.sizes = np.array(ns)
        self.blob_total = sum(len(b) for b in blobs)
        path = os.path.join(data_dir, "rollup")
        write_parquet(
            path,
            {"key": uniq, "n": self.sizes, "sketch": np.array(blobs, dtype=object)},
            self.size["files"],
        )
        self.sketch_df = spark.read.schema("key long, n long, sketch binary").parquet(path)

    def prepare_truth(self):
        self.sorted = np.sort(self.x)
        self.probe_ys = self.sorted[check_grid(self.sorted.size) - 1]

    def job(self):
        return udaf.merge_group_sketches(self.sketch_df)

    def check(self, sk):
        self.answer_sketches = [sk]
        return check_sketch(sk, self.sorted)

    def records(self):
        return int(self.sizes.size)

    def refs(self):
        return {
            "ref.noop_floor_s": timed_median(
                lambda: self.sketch_df.select("sketch").collect()
            )
        }

    def props(self):
        return {
            "rows": self.size["rows"],
            "blobs": int(self.sizes.size),
            "blob_bytes": self.blob_total,
            "udaf.small_group_share": small_group_share(self.sizes, self.K),
            "partitions": self.sketch_df.rdd.getNumPartitions(),
        }


class Stream(Workload):
    name = "stream"
    needs_spark = False
    SIZES = {
        "full": {"items": 1_000_000, "batch": 1_000},
        "tiny": {"items": 20_000, "batch": 1_000},
    }
    K = 64

    def setup(self, spark, data_dir):
        self.items = lognormal(_rng(self.seed, 4), self.size["items"])

    def prepare_truth(self):
        self.sorted = np.sort(self.items)

    def job(self):
        """One monitoring pass: ingest every batch, then read p99 and the
        rank of the batch's first item."""
        sk = ReqSketch(self.K)
        b = self.size["batch"]
        update_ns, lat = 0, []
        clock = time.perf_counter_ns
        for lo in range(0, self.items.size, b):
            batch = self.items[lo : lo + b]
            t0 = clock()
            sk.update(batch)
            t1 = clock()
            sk.quantile(0.99)
            t2 = clock()
            sk.rank(float(batch[0]))
            t3 = clock()
            update_ns += t1 - t0
            lat += [t2 - t1, t3 - t2]
        return sk, update_ns, lat

    def check(self, result):
        self.answer_sketches = [result[0]]
        return check_sketch(result[0], self.sorted)

    def latencies(self, result):
        return result[2]

    def ingest_seconds(self, result, job_s):
        return result[1] / 1e9

    def records(self):
        return self.size["items"]

    def refs(self):
        return {
            "ref.single_thread_build_s": timed_median(
                lambda: ReqSketch(self.K).update(self.items)
            )
        }

    def props(self):
        return {"items": self.size["items"], "batch": self.size["batch"]}


WORKLOADS = {w.name: w for w in (GlobalBuild, Grouped, Rollup, Stream)}
