"""The Spark layer hands values to Python over Arrow only: no module
under ``repro.spark`` imports pandas, ``build_sketch``'s partial build
runs as ``MapInArrow``, never as ``MapInPandas``, and its partials come
back as one Arrow column."""
import ast
from pathlib import Path

import pytest

from repro.core import serde
from repro.spark import aggregate as agg

SPARK = Path(__file__).resolve().parent.parent / "src" / "repro" / "spark"
FILES = sorted(SPARK.rglob("*.py"))


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
