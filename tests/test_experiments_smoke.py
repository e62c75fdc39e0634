"""Smoke tests: every table harness runs (quick mode), passes its own
``check`` and its measured shape agrees with the paper's qualitative
claim."""
import pytest

from repro.experiments import (
    t1_space_vs_n,
    t2_space_vs_eps,
    t3_accuracy_tails,
    t4_mergeability,
    t5_throughput,
    t6_all_quantiles,
)


@pytest.fixture(scope="module")
def t1():
    return t1_space_vs_n.run(quick=True)


@pytest.fixture(scope="module")
def t2():
    return t2_space_vs_eps.run(quick=True)


@pytest.fixture(scope="module")
def t3():
    return t3_accuracy_tails.run(quick=True)


@pytest.fixture(scope="module")
def t4_run(spark):
    """T4's quick table, and how many times it built partials."""
    builds, build = 0, t4_mergeability.partition_sketches

    def counted(*args, **kwargs):
        nonlocal builds
        builds += 1
        return build(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(t4_mergeability, "partition_sketches", counted)
        return t4_mergeability.run(spark, quick=True), builds


@pytest.fixture(scope="module")
def t4(t4_run):
    return t4_run[0]


@pytest.fixture(scope="module")
def t5():
    return t5_throughput.run(quick=True)


@pytest.fixture(scope="module")
def t6():
    return t6_all_quantiles.run(quick=True)


class TestT1:
    def test_columns(self, t1):
        for c in ("n", "req_retained", "naive_retained", "kll_retained"):
            assert c in t1.columns

    def test_req_space_grows_sublinearly(self, t1):
        """16x more data -> far less than 16x more space (polylog growth)."""
        ratio = t1["req_retained"].iloc[-1] / t1["req_retained"].iloc[0]
        data_ratio = t1["n"].iloc[-1] / t1["n"].iloc[0]
        assert ratio < data_ratio / 3

    def test_naive_bigger_than_req(self, t1):
        t1_space_vs_n.check(t1)

    def test_kll_flat(self, t1):
        assert t1["kll_retained"].max() < 3 * t1["kll_retained"].min()


class TestT2:
    def test_check(self, t2):
        t2_space_vs_eps.check(t2)

    def test_linear_vs_quadratic_eps(self, t2):
        # Naive's blow-up factor over REQ grows as eps shrinks.
        assert t2["naive_over_req"].is_monotonic_increasing

    def test_k_scaling(self, t2):
        # k quadruples for naive when eps halves; roughly doubles for REQ.
        req_ratio = t2["req_k"].iloc[-1] / t2["req_k"].iloc[0]
        naive_ratio = t2["naive_k"].iloc[-1] / t2["naive_k"].iloc[0]
        assert naive_ratio > 2.5 * req_ratio


class TestT3:
    def test_check(self, t3):
        t3_accuracy_tails.check(t3)

    def test_req_flat_relative_error(self, t3):
        assert t3["req_max_rel"].max() < 0.02

    def test_kll_blows_up_at_low_ranks(self, t3):
        low = t3[t3["rank"] <= 10]["kll_max_rel"].max()
        high = t3[t3["rank"] >= t3.attrs["n"] // 4]["kll_max_rel"].max()
        assert low > 10 * max(high, 1e-4)

    def test_sampling_bad_at_low_ranks(self, t3):
        assert t3[t3["rank"] <= 10]["sample_max_rel"].max() > 0.3

    def test_space_budgets_comparable(self, t3):
        s = t3.attrs["space"]
        assert 0.5 < s["kll"] / s["req"] < 2.0
        assert 0.5 < s["sample"] / s["req"] < 2.0


class TestT4:
    def test_all_builds_within_band(self, t4):
        t4_mergeability.check(t4)
        stream_err = t4[t4["build"] == "driver_stream"]["max_rel_err"].iloc[0]
        # No distributed build an order of magnitude worse than streaming.
        assert t4["max_rel_err"].max() <= max(10 * max(stream_err, 0.005), 0.05)

    def test_one_build_of_partials_per_partition_count(self, t4, t4_run):
        """The balanced and chain rows merge the same partials."""
        distributed = t4[t4["build"] != "driver_stream"]
        assert t4_run[1] == distributed["partitions"].nunique() == 2

    def test_requires_spark(self):
        with pytest.raises(ValueError):
            t4_mergeability.run(None, quick=True)


class TestT5:
    def test_log_not_linear_cost(self, t5):
        # k grows 16x; per-item cost must NOT grow 16x (log claim).
        t5_throughput.check(t5)

    def test_compactions_shrink_with_k(self, t5):
        assert t5["compactions"].is_monotonic_decreasing


class TestT6:
    def test_all_quantiles_bound(self, t6):
        t6_all_quantiles.check(t6)
        assert t6["max_rel_all_y"].max() < 0.02
