"""Oracle tests: the Spark-SQL exact-rank ground truth must match DuckDB.

Every accuracy experiment judges sketches against ``exact_ranks``; these
tests validate that ground truth itself, row for row, with
``repro.oracle.assert_equivalent``.
"""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.oracle import assert_equivalent
from repro.spark import queries as Q


@pytest.fixture(scope="module")
def li(spark):
    return sd.lineitem(spark, sf=0.002, seed=0).cache()


class TestExactRanksOracle:
    def test_lineitem_price_ranks(self, spark, li):
        qs = [1000.0, 5000.0, 20000.0, 50000.0, 90000.0]
        got = Q.exact_ranks(li, "l_extendedprice", qs)
        assert_equivalent(
            got, Q.exact_ranks_sql("li", "l_extendedprice", qs), li=li
        )

    def test_lineitem_quantity_ranks(self, spark, li):
        qs = [0.5, 10.0, 25.0, 50.0]
        got = Q.exact_ranks(li, "l_quantity", qs)
        assert_equivalent(got, Q.exact_ranks_sql("li", "l_quantity", qs), li=li)

    def test_orders_totalprice_ranks(self, spark):
        o = sd.orders(spark, sf=0.002, seed=1)
        qs = [2000.0, 100000.0, 400000.0]
        got = Q.exact_ranks(o, "o_totalprice", qs)
        assert_equivalent(got, Q.exact_ranks_sql("o", "o_totalprice", qs), o=o)

    def test_extreme_queries(self, spark, li):
        """Queries below the min and above the max of the column."""
        qs = [-1.0, 1e9]
        got = Q.exact_ranks(li, "l_extendedprice", qs)
        rows = {r["y"]: r["rank"] for r in got.collect()}
        n = li.count()
        assert rows[-1.0] == 0 and rows[1e9] == n
        assert_equivalent(
            got, Q.exact_ranks_sql("li", "l_extendedprice", qs), li=li
        )

    def test_matches_numpy_exact(self, spark, li):
        """Triangulate: Spark SQL == numpy ExactRanks == DuckDB."""
        from repro.baselines.exact import ExactRanks

        vals = li.toPandas()["l_extendedprice"].to_numpy()
        ex = ExactRanks(vals)
        qs = list(np.quantile(vals, [0.001, 0.01, 0.5, 0.99]))
        got = {r["y"]: r["rank"] for r in Q.exact_ranks(li, "l_extendedprice", qs).collect()}
        for q in qs:
            assert got[float(q)] == ex.rank(q)
