"""The benchmark's tracer (``perfbench/tracing.py``) patches named methods
of the program. A refactor that renames or moves one of them would break
``perfbench/run.py --trace 1`` only when that run is made; these tests
catch it in the ordinary suite."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import ReqSketch
from repro.core.compactor import RelativeCompactor


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


def test_every_patch_point_exists():
    points = tracing.patch_points(((DataFrame, SparkSession),))
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in points if not hasattr(o, a)]
    assert not missing
    assert all(callable(getattr(o, a)) for o, a, _, _ in points)
    named = {(o, a) for o, a, _, _ in points}
    for meth in ("rank", "ranks", "quantile", "quantiles", "cdf", "update", "merge", "copy"):
        assert (ReqSketch, meth) in named
    assert (RelativeCompactor, "sorted_values") in named


def test_patched_calls_record_spans_and_restore():
    points = tracing.patch_points()
    before = {(o, a): vars(o).get(a) for o, a, _, _ in points}
    tracer = tracing.Tracer()
    with tracing.installed(tracer, points):
        with tracer.job("j"):
            sk = ReqSketch(8, seed=0).update(np.arange(500.0))
            sk.rank(10.0), sk.quantile(0.5), sk.ranks([1.0]), sk.quantiles([0.1]), sk.cdf([2.0])
    names = [s.name for s in tracer.of_job("j")]
    assert names.count("estimator.query") == 5  # one span per public query call
    assert "req_sketch.update" in names and "compactor.sort" in names
    assert {(o, a): vars(o).get(a) for o, a, _, _ in points} == before
