"""Wire-format tests for sketches shipped through Spark."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.kll import KllSketch
from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import fill_sketch
from repro.synth_data import stream_array


class TestReqRoundtrip:
    @pytest.mark.parametrize("n", [0, 5, 1000, 30_000])
    def test_roundtrip_preserves_estimates(self, n):
        sk = ReqSketch(8, seed=1)
        if n:
            sk.update(stream_array("uniform", n, seed=1))
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert isinstance(cp, ReqSketch)
        assert cp.n == sk.n and cp.total_weight() == sk.total_weight()
        qs = np.linspace(0, 1, 25)
        assert np.array_equal(cp.ranks(qs), sk.ranks(qs))
        assert cp.protected_head == sk.protected_head

    def test_roundtrip_preserves_params(self):
        sk = ReqSketch.from_error_mergeable(0.1, 0.1, k_const=4).update(
            stream_array("uniform", 10_000, seed=2)
        )
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert cp.k == sk.k and cp.N == sk.N and cp._khat == sk._khat

    def test_roundtrip_preserves_schedule_states(self):
        sk = ReqSketch(8, seed=3, schedule="all").update(stream_array("uniform", 20_000, seed=3))
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert cp.schedule == "all"
        assert [lv.state for lv in cp.levels] == [lv.state for lv in sk.levels]

    def test_deserialized_sketch_still_updatable(self):
        sk = ReqSketch(8, seed=4).update(stream_array("uniform", 5000, seed=4))
        cp = serde.from_bytes(serde.to_bytes(sk))
        cp.update(stream_array("uniform", 5000, seed=5))
        assert cp.total_weight() == 10_000

    def test_deserialized_sketch_mergeable(self):
        a = serde.from_bytes(
            serde.to_bytes(ReqSketch(8, seed=6).update(stream_array("uniform", 4000, seed=6)))
        )
        b = serde.from_bytes(
            serde.to_bytes(ReqSketch(8, seed=7).update(stream_array("uniform", 6000, seed=7)))
        )
        a.merge(b)
        assert a.total_weight() == 10_000

    def test_rng_state_roundtrip_determinism(self):
        """Serialize/deserialize mid-stream: identical future behaviour."""
        data = stream_array("uniform", 20_000, seed=8)
        sk = ReqSketch(8, seed=8).update(data[:10_000])
        cp = serde.from_bytes(serde.to_bytes(sk))
        sk.update(data[10_000:])
        cp.update(data[10_000:])
        qs = np.linspace(0, 1, 40)
        assert np.array_equal(sk.ranks(qs), cp.ranks(qs))


class TestKllRoundtrip:
    def test_roundtrip(self):
        sk = KllSketch(k=50, seed=9).update(stream_array("uniform", 9000, seed=9))
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert isinstance(cp, KllSketch)
        qs = np.linspace(0, 1, 25)
        assert np.array_equal(cp.ranks(qs), sk.ranks(qs))


def _fill_blob(n=3_000, seed=5):
    vals = pd.Series(stream_array("uniform", n, seed=seed))
    return serde.to_bytes(fill_sketch(ReqSketch(8), [seed, 0], [vals]))


def _merged_blob():
    a = ReqSketch(8, seed=1).update(stream_array("uniform", 2_000, seed=1))
    b = ReqSketch(8, seed=2).update(stream_array("uniform", 30_000, seed=2))
    return serde.to_bytes(a.merge(b))


def _eager(blob):
    """A decoded sketch with its generator restored at once."""
    sk = serde.from_bytes(blob)
    gen = np.random.default_rng()
    gen.bit_generator.state = sk.to_dict()["rng_state"]
    sk.rng = gen
    return sk


BLOBS = {"fill_sketch": _fill_blob, "merged": _merged_blob}


class TestGeneratorOnFirstDraw:
    """A sketch builds its generator the first time it draws from it;
    bytes and coin flips are those of an eagerly built generator."""

    @pytest.mark.parametrize("make", BLOBS.values(), ids=BLOBS.keys())
    def test_reencode_without_draw_is_identical(self, make):
        blob = make()
        sk = serde.from_bytes(blob)
        assert sk._rng is None
        assert serde.to_bytes(sk) == blob

    @pytest.mark.parametrize("make", BLOBS.values(), ids=BLOBS.keys())
    def test_decoded_update_matches_eager(self, make):
        blob = make()
        more = stream_array("uniform", 20_000, seed=9)
        lazy, eager = serde.from_bytes(blob), _eager(blob)
        assert serde.to_bytes(lazy.update(more)) == serde.to_bytes(eager.update(more))

    @pytest.mark.parametrize("make", BLOBS.values(), ids=BLOBS.keys())
    def test_decoded_merge_matches_eager(self, make):
        blob = make()
        other = ReqSketch(8, seed=10).update(stream_array("uniform", 50_000, seed=10))
        lazy, eager = serde.from_bytes(blob), _eager(blob)
        assert serde.to_bytes(lazy.merge(other)) == serde.to_bytes(eager.merge(other))

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_seed_matches_given_generator(self, seed):
        data = stream_array("uniform", 10_000, seed=seed)
        lazy = ReqSketch(8, seed=seed).update(data)
        given = ReqSketch(8, _rng=np.random.default_rng(seed)).update(data)
        assert serde.to_bytes(lazy) == serde.to_bytes(given)

    def test_copy_of_undrawn_sketch_keeps_state(self):
        blob = _fill_blob()
        cp = serde.from_bytes(blob).copy()
        assert serde.to_bytes(cp) == blob
        more = stream_array("uniform", 20_000, seed=11)
        assert serde.to_bytes(cp.update(more)) == serde.to_bytes(_eager(blob).update(more))

    def test_kll_reencode_is_identical(self):
        sk = KllSketch(k=50, seed=12).update(stream_array("uniform", 9000, seed=12))
        blob = serde.to_bytes(sk)
        cp = serde.from_bytes(blob)
        assert serde.to_bytes(cp) == blob
        more = stream_array("uniform", 5_000, seed=13)
        assert serde.to_bytes(cp.update(more)) == serde.to_bytes(sk.update(more))


class TestFormat:
    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            serde.from_bytes(b"garbage")

    def test_unknown_type_rejected(self):
        import pickle

        blob = b"REPROSK1" + pickle.dumps({"type": "mystery"})
        with pytest.raises(ValueError):
            serde.from_bytes(blob)

    def test_bytearray_accepted(self):
        sk = ReqSketch(8).update([1.0, 2.0])
        cp = serde.from_bytes(bytearray(serde.to_bytes(sk)))
        assert cp.n == 2
