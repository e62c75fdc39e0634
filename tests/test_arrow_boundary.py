"""The Spark layer hands values to Python over Arrow only: no module
under ``repro.spark`` imports pandas, no module of the package uses the
RDD API, ``build_sketch``'s partial build runs as ``MapInArrow``, never
as ``MapInPandas``, its partials come back as one Arrow column, and no
public entry point unpickles data on the driver."""
import ast
from pathlib import Path

import pytest
from pyspark.serializers import CPickleSerializer

from repro.core import serde
from repro.spark import aggregate as agg
from repro.spark import udaf

REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
SPARK = REPRO / "spark"
FILES = sorted(SPARK.rglob("*.py"))
PACKAGE_FILES = sorted(REPRO.rglob("*.py"))
# A DataFrame's ``rdd`` reads its rows through pickle, and the RDD
# reductions ship and collect pickled values.
RDD_ATTRIBUTES = {"rdd", "treeReduce", "treeAggregate"}


def imported_packages(source: str):
    """The top-level package of every module that ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_files_found():
    assert {p.name for p in FILES} >= {"aggregate.py", "udaf.py", "queries.py"}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import pandas as pd", {"pandas"}),
        ("import pandas.api.types", {"pandas"}),
        ("from pandas import DataFrame", {"pandas"}),
        ("def f():\n    import pandas", {"pandas"}),
        ("import numpy as np, pyarrow as pa", {"numpy", "pyarrow"}),
        ("from . import pandas", set()),
    ],
)
def test_detector(source, expected):
    assert imported_packages(source) == expected


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_pandas_import(path):
    assert "pandas" not in imported_packages(path.read_text())


def rdd_attributes(source: str):
    """The names in ``RDD_ATTRIBUTES`` that ``source`` reads as attributes."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in RDD_ATTRIBUTES
    }


@pytest.mark.parametrize(
    "source, expected",
    [
        ("df.rdd.getNumPartitions()", {"rdd"}),
        ("blobs.treeReduce(f, 2)", {"treeReduce"}),
        ("df.rdd.treeAggregate(z, f, g)", {"rdd", "treeAggregate"}),
        ("f = x.rdd", {"rdd"}),
        ("rdd = df.toArrow()", set()),
        ("df.mapInArrow(f, 'x binary')", set()),
    ],
)
def test_rdd_detector(source, expected):
    assert rdd_attributes(source) == expected


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: str(p.relative_to(REPRO)))
def test_no_rdd_api(path):
    assert rdd_attributes(path.read_text()) == set()


def test_build_sketch_maps_in_arrow(spark, monkeypatch):
    """The partials reach the driver as one Arrow collect and one column
    decode: no pickled-row ``collect`` and no per-row ``from_bytes``."""
    df = spark.range(0, 1_000, 1, 2).selectExpr("CAST(id AS DOUBLE) AS x")
    cls, plans = type(df), []
    to_arrow = cls.toArrow

    def spy(self):
        plans.append(self._jdf.queryExecution().executedPlan().toString())
        return to_arrow(self)

    def refuse(*args, **kwargs):
        raise AssertionError("the partials were read one row at a time")

    monkeypatch.setattr(cls, "toArrow", spy)
    monkeypatch.setattr(cls, "collect", refuse)
    monkeypatch.setattr(serde, "from_bytes", refuse)
    assert agg.build_sketch(df, "x", k=8).n == 1_000
    (plan,) = plans
    assert "MapInArrow" in plan and "MapInPandas" not in plan, plan


def test_driver_unpickles_nothing(spark, monkeypatch):
    """Neither the global build nor the rollup of group sketches reads a
    pickled value on the driver."""
    df = spark.range(0, 4_000, 1, 4).selectExpr("id % 7 AS g", "CAST(id AS DOUBLE) AS x")
    sketches = udaf.group_sketches(df, ["g"], "x", k=8)
    calls, loads = [], CPickleSerializer.loads

    def spy(self, obj, *args, **kwargs):
        calls.append(len(obj))  # the size of each pickle read
        return loads(self, obj, *args, **kwargs)

    monkeypatch.setattr(CPickleSerializer, "loads", spy)
    assert spark.sparkContext.parallelize([1], 1).collect() == [1]
    assert calls  # the spy sees a pickled collect
    calls.clear()
    assert agg.build_sketch(df, "x", k=8).n == 4_000
    assert udaf.merge_group_sketches(sketches).n == 4_000
    assert calls == []
