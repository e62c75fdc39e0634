"""Cost guard for grouped builds: a group sketch builds its random
generator only when it first compacts or is encoded.  Most groups of a
skewed key never fill level 0, and building a generator costs about as
much as answering such a group, so it is counted here rather than timed.
Deferring the build must not change a single byte of any sketch."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import fill_sketch

PHIS = [0.0, 0.1, 0.5, 0.9, 1.0]


def _counting_default_rng(monkeypatch):
    calls = []
    real = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return calls


def test_small_groups_build_no_generator(monkeypatch):
    """``fill_sketch``, which builds every group's sketch in the grouped
    UDFs, builds a group's generator only if the group fills level 0:
    of 40 groups below B rows, one of B rows and one of 3B, only the last
    two build one, and answering a group builds none."""
    k = 32
    B = ReqSketch(k).B
    rng = np.random.default_rng(1)
    sizes = list(rng.integers(1, B, 40)) + [B, 3 * B]
    groups = [rng.lognormal(size=size) for size in sizes]
    calls = _counting_default_rng(monkeypatch)
    built = []
    for key, values in enumerate(groups):
        before = len(calls)
        sk = fill_sketch(k, [0, key], [values])
        sk.quantiles(PHIS)
        built.append(len(calls) - before)
    assert built == [int(size >= B) for size in sizes]


def _eager(k, entropy, values):
    """``fill_sketch`` as it was: the generator built up front."""
    sk = ReqSketch(k)
    sk.rng = np.random.default_rng(np.random.SeedSequence(entropy))
    for chunk in values:
        sk.update(chunk[~np.isnan(chunk)])
    return sk


def _global_like(seed=5):
    """Lognormal latencies in four partitions of 10k-row batches."""
    x = np.random.default_rng(seed).lognormal(3.0, 1.5, 200_000)
    for pid, part in enumerate(np.array_split(x, 4)):
        yield [seed, pid], np.array_split(part, 5)


def _grouped_like(seed=11):
    """200 Zipf(1.1) keys over 40k rows, one group per key."""
    rng = np.random.default_rng(seed)
    p = np.arange(1, 201, dtype=np.float64) ** -1.1
    keys = rng.choice(200, size=40_000, p=p / p.sum())
    x = rng.lognormal(3.0, 1.5, keys.size)
    for key in np.unique(keys):
        yield [0, int(key)], [x[keys == key]]


@pytest.fixture(scope="module")
def lineitem_prices(spark):
    return sd.lineitem(spark, sf=0.002, seed=3).toPandas()


@pytest.mark.parametrize("inputs", ["global", "grouped", "lineitem"])
def test_deferred_generator_keeps_blobs(inputs, lineitem_prices):
    if inputs == "global":
        builds = list(_global_like())
    elif inputs == "grouped":
        builds = list(_grouped_like())
    else:
        pdf = lineitem_prices
        builds = [
            ([7, int(part)], [g["l_extendedprice"].to_numpy()])
            for part, g in pdf.groupby("l_partkey", sort=True)
        ] + [([7, i], [g["l_extendedprice"].to_numpy()]) for i, (_, g) in enumerate(pdf.groupby("l_returnflag"))]
    compacted = 0
    for entropy, values in builds:
        got = fill_sketch(32, entropy, values)
        compacted += got.num_levels > 1
        assert serde.to_bytes(got) == serde.to_bytes(_eager(32, entropy, values))
    assert compacted > 0
