"""Tests of the benchmark's own code.

Run from the repository root with the program on the path, as tier-1 does:

    PYTHONPATH=src python -m pytest perfbench -q -p no:cacheprovider

The ``spark`` fixture comes from the repository's root ``conftest.py``.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from eventlog import ENGINE_METRICS, engine_metrics, read_events  # noqa: E402
from gate import check_quantiles, check_sketch  # noqa: E402
from layers import per_layer_metrics, uncovered_seconds  # noqa: E402
from tracing import Tracer, installed, patch_points  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core.req_sketch import ReqSketch  # noqa: E402
from repro.spark import aggregate  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_gate(spark, tmp_path, name):
    w = WORKLOADS[name](seed=5, scale="tiny")
    w.setup(spark if w.needs_spark else None, str(tmp_path))
    w.prepare_truth()
    pre = w.verify()
    assert pre is None or pre.ok, pre.problems
    result = w.job()
    v = w.check(result)
    assert v.ok, v.problems
    assert len(w.latencies(result)) > 0
    retained, nbytes = w.retained_and_bytes()
    assert retained > 0 and nbytes > 0


def test_gate_rejects_a_lost_item():
    x = np.sort(np.random.default_rng(0).lognormal(3, 1.5, 5000))
    sk = ReqSketch(32).update(x[1:])
    v = check_sketch(sk, x)
    assert not v.ok
    assert any("total_weight" in p for p in v.problems)


def test_gate_rejects_an_inexact_small_group():
    x = np.arange(1.0, 51.0)
    assert check_quantiles([25.0, 45.0], [0.5, 0.9], x, exact=True).ok
    assert not check_quantiles([26.0, 45.0], [0.5, 0.9], x, exact=True).ok


def test_gate_rejects_a_far_quantile():
    x = np.arange(1.0, 10001.0)
    assert not check_quantiles([6000.0], [0.5], x, exact=False).ok


# ------------------------------------------------------------ event log


FIXTURE = HERE / "fixtures" / "eventlog"


def test_event_log_fixture_metrics():
    """The fixture is a trimmed event log of a real session: an untagged
    ``global`` job (to be ignored), then one ``grouped`` job tagged
    ``perfbench:job:t0`` whose seven stages ran twelve tasks. The
    expected values are hand sums over the fixture's tagged tasks."""
    m = engine_metrics(read_events(str(FIXTURE)), "perfbench:job:")
    assert set(m) == {"perfbench:job:t0"}
    e = m["perfbench:job:t0"]
    assert set(e) == set(ENGINE_METRICS)
    assert e["engine.tasks"] == 12
    assert e["engine.task_run_s"] == pytest.approx(9.700)
    assert e["engine.python_init_s"] == pytest.approx(1.581)
    assert e["engine.python_run_s"] == pytest.approx(0.369)
    assert e["engine.to_python_bytes"] == 73312
    assert e["engine.from_python_bytes"] == 57744
    assert e["engine.scan_s"] == pytest.approx(0.039)
    assert e["engine.shuffle_write_bytes"] == 55212
    assert e["engine.result_bytes"] == 75723
    assert e["engine.gc_s"] == pytest.approx(0.010)
    # The Python stage (applyInPandas) ran as a single task.
    assert e["engine.task_skew"] == pytest.approx(1.0)


# -------------------------------------------------------------- tracing


def test_traced_job_spans_nest_and_cover_the_job(spark, tmp_path):
    w = WORKLOADS["global"](seed=6, scale="tiny")
    w.setup(spark, str(tmp_path))
    w.prepare_truth()
    w.job()  # warm-up, untraced
    originals = (aggregate.build_sketch, ReqSketch.update)
    tracer = Tracer()
    classes = ((type(spark.range(1)), type(spark)),)
    data = w.replay_input()
    with installed(tracer, patch_points(classes)):
        with tracer.job("perfbench:job:t0"):
            w.job()
        with tracer.job("replay"):
            w.replay(data)
    assert (aggregate.build_sketch, ReqSketch.update) == originals

    spans = tracer.of_job("perfbench:job:t0")
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent != -1:
            p = by_id[s.parent]
            assert p.start_ns <= s.start_ns <= s.end_ns <= p.end_ns, (s, p)
    root = next(s for s in spans if s.name == "job")
    uncovered = uncovered_seconds(spans)
    print(f"uncovered {uncovered:.6f} s of {root.seconds:.6f} s")
    assert 0 <= uncovered < 0.05 * root.seconds

    m = per_layer_metrics(tracer, ["perfbench:job:t0"], "replay", {})
    assert m["aggregate.partition_sketches_s"] > 0
    assert m["req_sketch.update_calls"] > 0  # from the replay
    assert m["serde.blobs"] >= 2  # encoded in the replay, decoded on the driver
    assert m["compactor.compactions"] > 0


# ------------------------------------------------------------------ CLI


def test_run_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, the run must fail fast
    without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_metric_lists_match_the_benchmark_spec():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_stream_run_prints_every_metric():
    """A short end-to-end run of the driver-only workload through the CLI."""
    root = HERE.parent
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
