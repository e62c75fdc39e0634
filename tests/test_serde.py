"""Wire-format tests for sketches shipped through Spark."""
import functools
import math
import pickle
import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.kll import KllSketch
from repro.core import params, serde
from repro.core.compactor import RelativeCompactor
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import fill_sketch, merge_sequential
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
        sk = ReqSketch(6, N0=16).update(stream_array("uniform", 10_000, seed=2))
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert (cp.k, cp.N, cp.B, cp.protected_head) == (sk.k, sk.N, sk.B, sk.protected_head)

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


def _fill_blob(n=3_000, seed=5):
    vals = pd.Series(stream_array("uniform", n, seed=seed))
    return serde.to_bytes(fill_sketch(8, [seed, 0], [vals]))


def _merged_blob():
    a = ReqSketch(8, seed=1).update(stream_array("uniform", 2_000, seed=1))
    b = ReqSketch(8, seed=2).update(stream_array("uniform", 30_000, seed=2))
    return serde.to_bytes(a.merge(b))


def _at(field):
    """The byte offset of a header field."""
    return serde._HEAD_ROW.fields[field][1]


def _level_at(h):
    """The byte offset of level ``h``'s row of the level table."""
    return serde._HEAD.size + serde._LEVEL.size * h


def _eager(blob):
    """A decoded sketch with its generator restored at once from the
    blob's PCG64 fields."""
    sk = serde.from_bytes(blob)
    s_lo, s_hi, i_lo, i_hi, has_uint32, uinteger = struct.unpack_from("<QQQQBI", blob, _at("s_lo"))
    gen = np.random.default_rng()
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_lo | s_hi << 64, "inc": i_lo | i_hi << 64},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
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
        given = ReqSketch(8)
        given.rng = np.random.default_rng(seed)
        given.update(data)
        assert serde.to_bytes(lazy) == serde.to_bytes(given)

    def test_copy_of_undrawn_sketch_keeps_state(self):
        blob = _fill_blob()
        cp = serde.from_bytes(blob).copy()
        assert serde.to_bytes(cp) == blob
        more = stream_array("uniform", 20_000, seed=11)
        assert serde.to_bytes(cp.update(more)) == serde.to_bytes(_eager(blob).update(more))

    @pytest.mark.parametrize("seed", [14, np.random.SeedSequence([14, 0])], ids=["int", "SeedSequence"])
    def test_copy_and_decode_of_undrawn_sketch_build_no_generator(self, monkeypatch, seed):
        """Neither builds a generator, and each then draws the coins the
        original draws: the same bytes after the same update."""
        items = stream_array("uniform", 20, seed=14)
        original = ReqSketch(8, seed=seed).update(items)
        assert original.num_levels == 1  # it never compacted, so never drew
        blob = serde.to_bytes(ReqSketch(8, seed=seed).update(items))
        more = stream_array("uniform", 20_000, seed=15)
        built, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or default_rng(*a))
        cp, decoded = original.copy(), serde.from_bytes(blob)
        assert built == []
        want = serde.to_bytes(original.update(more))
        assert serde.to_bytes(cp.update(more)) == want
        assert serde.to_bytes(decoded.update(more)) == want
        assert len(built) == 3  # one each, at its first draw

    def test_copy_takes_state_not_generator(self):
        sk = ReqSketch(8, seed=12).update(stream_array("uniform", 5_000, seed=12))
        assert sk._rng is not None  # it compacted, so it drew
        blob = serde.to_bytes(sk)
        cp = sk.copy()
        more = stream_array("uniform", 20_000, seed=13)
        cp.update(more)
        assert serde.to_bytes(sk) == blob
        assert serde.to_bytes(cp) == serde.to_bytes(sk.update(more))


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


def _items(n):
    """A fixed permutation of small integers, independent of any RNG."""
    return np.array([(i * 37) % 101 for i in range(n)], dtype=np.float64)


# name -> (sketch builder, fixture hex, expected decode: n, N, k, schedule,
# level states, level sizes, ranks of 10, 50 and 90). The "grown" sketch
# starts at N = 16 and grows once, to 256.  After a deliberate change to
# the layout or to the algorithm, regenerate the hex and the decode tuple
# from the builders, from the repository root:
#   PYTHONPATH=src python -c "from tests.test_serde import GOLDEN, serde
#   for m, _, _ in GOLDEN.values(): print(serde.to_bytes(m()).hex())"
# then check that each blob decodes to a sketch that answers within the
# bound before pinning it.
GOLDEN = {
    "fixed_k": (
        lambda: ReqSketch(4, seed=7).update(_items(60)),
        "5251534b040004000000000400000000000000000000000000003c000000000000002000"
        "0000000000000200000071581c9c5b4d26e10d328c9db3ef749859d970c05a7f8866bfce"
        "8ace961875c400a94106a002000000000000002c00000000000000000000000800000000"
        "000000000000000000000000000040000000000000084000000000000014400000000000"
        "0018400000000000002240000000000000244000000000000028400000000000002a4000"
        "00000000002e400000000000003040000000000000334000000000000034400000000000"
        "003640000000000000374000000000000039400000000000003a400000000000003d4000"
        "00000000003e400000000000004040000000000080404000000000000042400000000000"
        "804240000000000080434000000000000044400000000000004540000000000080454000"
        "000000000047400000000000804740000000000080484000000000000049400000000000"
        "004a400000000000004c400000000000804d400000000000004f40000000000080504000"
        "0000000040514000000000000053400000000000c053400000000000c054400000000000"
        "8055400000000000405640000000000040574000000000000058400000000000804c4000"
        "00000000804f400000000000805140000000000080524000000000000054400000000000"
        "c0554000000000008057400000000000005940",
        (60, 1024, 4, "req", [2, 0], [44, 8], [7, 31, 54]),
    ),
    "grown": (
        lambda: ReqSketch(2, seed=8, N0=16).update(_items(40)),
        "5251534b0400020000000001000000000000000000000000000028000000000000001000"
        "00000000000002000000316e6a648db241fec2487b1c39eb3d072d188c1feb8d7b300fbb"
        "fb9c2f86be2d01da2cbefc03000000000000001e00000000000000000000000500000000"
        "000000000000000000000000000840000000000000184000000000000022400000000000"
        "0024400000000000002a4000000000000030400000000000003340000000000000344000"
        "000000000037400000000000003a400000000000003d400000000000003e400000000000"
        "804040000000000000424000000000008042400000000000004440000000000080454000"
        "0000000000474000000000008047400000000000804a400000000000004c400000000000"
        "004e400000000000804f4000000000008051400000000000405240000000000000544000"
        "00000000c054400000000000805640000000000040574000000000000049400000000000"
        "c05040000000000040534000000000008057400000000000405840",
        (40, 256, 2, "req", [3, 0], [30, 5], [5, 22, 35]),
    ),
    "schedule_all": (
        lambda: ReqSketch(4, seed=9, schedule="all").update(_items(60)),
        "5251534b040104000000000400000000000000000000000000003c000000000000002000"
        "00000000000002000000a62e48cb7cef3de46ef0694c9684e342dbd9488780f9eb0e5843"
        "db36872cd92301dea6c8de01000000000000002c00000000000000000000000800000000"
        "000000000000000000000000000040000000000000084000000000000014400000000000"
        "0018400000000000002240000000000000244000000000000028400000000000002a4000"
        "00000000002e400000000000003040000000000000334000000000000034400000000000"
        "003640000000000000374000000000000039400000000000003a400000000000003d4000"
        "00000000003e400000000000004040000000000080404000000000000042400000000000"
        "804240000000000080434000000000000044400000000000004540000000000080454000"
        "00000000004740000000000080474000000000008048400000000000004a400000000000"
        "004c400000000000804d400000000000004f400000000000805040000000000040514000"
        "0000000040524000000000000053400000000000c053400000000000c054400000000000"
        "805540000000000040564000000000004057400000000000005840000000000000494000"
        "00000000804c400000000000804f40000000000080514000000000004053400000000000"
        "00554000000000008056400000000000405840",
        (60, 1024, 4, "all", [1, 0], [44, 8], [7, 32, 56]),
    ),
}


def _golden(name):
    make, hexed, _ = GOLDEN[name]
    return make(), bytes.fromhex(hexed)


class TestGoldenBytes:
    """The byte layout is pinned: a change to it must change these fixtures."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_encoding_matches_fixture(self, name):
        sk, blob = _golden(name)
        assert serde.to_bytes(sk) == blob

    @pytest.mark.parametrize("name", GOLDEN)
    def test_fixture_decodes(self, name):
        n, N, k, schedule, states, sizes, ranks = GOLDEN[name][2]
        blob = _golden(name)[1]
        sk = serde.from_bytes(blob)
        assert (sk.n, sk.N, sk.k, sk.schedule) == (n, N, k, schedule)
        assert [lv.state for lv in sk.levels] == states
        assert [len(lv) for lv in sk.levels] == sizes
        assert sk.ranks([10.0, 50.0, 90.0]).tolist() == ranks
        assert serde.to_bytes(sk) == blob


def _patched(blob, offset, fmt, *values):
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


def _first_item(sk):
    """Offset of level 0's first item: the header, then the level table."""
    return _level_at(sk.num_levels)


# name -> (golden sketch, (offset, struct format, *values) from the sketch, message)
CORRUPTIONS = {
    "version_1": ("fixed_k", lambda sk: (_at("version"), "<B", 1), "version"),
    "schedule_byte_2": ("fixed_k", lambda sk: (_at("sched"), "<B", 2), "schedule"),
    "odd_k": ("fixed_k", lambda sk: (_at("k"), "<I", 5), "even"),
    "zero_k": ("fixed_k", lambda sk: (_at("k"), "<I", 0), "even"),
    # k = 2 at N = 1024 gives B = 2 * 2 * 10 = 40, below level 0's 44
    # items; every other check still holds.
    "level_of_B_items": ("fixed_k", lambda sk: (_at("k"), "<I", 2), "a level holds B = 40 or more items"),
    "N_below_2": ("fixed_k", lambda sk: (_at("N_lo"), "<Q", 1), "2 <= N"),
    "n_above_N": ("fixed_k", lambda sk: (_at("n"), "<Q", sk.N + 1), "n <= N"),
    "min_B_zero": ("fixed_k", lambda sk: (_at("min_B"), "<Q", 0), "min_B"),
    "min_B_above_B": ("fixed_k", lambda sk: (_at("min_B"), "<Q", sk.B + 1), "min_B"),
    "has_uint32_2": ("fixed_k", lambda sk: (_at("has_uint32"), "<B", 2), "has_uint32"),
    "even_increment": ("fixed_k", lambda sk: (_at("i_lo"), "<Q", 2), "odd"),
    "weights_not_n": ("fixed_k", lambda sk: (_at("n"), "<Q", sk.n + 1), "sum to n"),
    # Level 1 is the top level.
    "top_level_in_state_1": ("fixed_k", lambda sk: (_level_at(1), "<Q", 1), "top level's schedule state must be 0"),
    "lower_level_in_state_0": ("fixed_k", lambda sk: (_level_at(0), "<Q", 0), "every lower level's at least 1"),
    "nan_item": ("fixed_k", lambda sk: (_first_item(sk), "<d", math.nan), "NaN"),
    "nan_last_item": (
        "schedule_all",
        lambda sk: (_first_item(sk) + 8 * (sk.num_retained() - 1), "<d", math.nan),
        "NaN",
    ),
}


def _rejected(blob, match=None):
    """``from_bytes`` rejects ``blob``, and a column of it fails with the
    same message."""
    with pytest.raises(ValueError, match=match) as alone:
        serde.from_bytes(blob)
    with pytest.raises(ValueError) as column:
        serde.decode_column(pa.array([blob], pa.binary()))
    assert str(column.value) == str(alone.value)


class TestMalformed:
    """Every malformed blob raises ``ValueError`` before a sketch is built."""

    def test_every_truncation_rejected(self):
        blob = _golden("fixed_k")[1]
        for end in range(len(blob)):
            _rejected(blob[:end])

    def test_trailing_byte_rejected(self):
        _rejected(_golden("fixed_k")[1] + b"\x00", "layout")

    def test_bad_magic_rejected(self):
        blob = _golden("fixed_k")[1]
        _rejected(b"RQSX" + blob[4:], "magic")

    def test_retired_version_3_rejected(self):
        """Version 3 held k-hat (a float64) and k_const (a u32) after k;
        its blobs have no reader."""
        blob = _golden("fixed_k")[1]
        v3 = blob[:4] + b"\x03" + blob[5:10] + struct.pack("<QI", 0x7FF8000000000000, 32) + blob[10:]
        _rejected(v3, "^unsupported sketch format version 3$")

    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_corrupt_field_rejected(self, name):
        base, where, match = CORRUPTIONS[name]
        sk, blob = _golden(base)
        _rejected(_patched(blob, *where(sk)), match)

    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_corrupt_field_rejected_by_column(self, name):
        base, where, match = CORRUPTIONS[name]
        sk, blob = _golden(base)
        column = pa.array([blob, _patched(blob, *where(sk)), blob], pa.binary())
        with pytest.raises(ValueError, match=match):
            serde.decode_column(column)

    def test_level_over_capacity_rejected(self):
        """No sketch at rest holds a full level, so no blob does."""
        for size in (72, 74):
            sk = ReqSketch(4, N0=1024)
            assert sk.B == 72
            sk.levels[0].append(np.arange(float(size)))
            sk.n = size
            _rejected(serde.to_bytes(sk), "a level holds B = 72 or more items")

    @pytest.mark.parametrize("level", [0, 1])
    def test_descent_inside_a_level_rejected(self, level):
        sk, blob = _golden("fixed_k")
        at = _first_item(sk) + 8 * sum(len(lv) for lv in sk.levels[:level])
        lo, hi = struct.unpack_from("<2d", blob, at)
        assert lo < hi
        out = bytearray(blob)
        struct.pack_into("<2d", out, at, hi, lo)
        _rejected(bytes(out), "non-descending")

    def test_descent_across_a_level_boundary_accepted(self):
        sk, blob = _golden("fixed_k")
        at = _first_item(sk) + 8 * len(sk.levels[0])
        last_of_0, first_of_1 = struct.unpack_from("<2d", blob, at - 8)
        assert first_of_1 < last_of_0
        assert serde.to_bytes(serde.from_bytes(blob)) == blob

    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)], ids=["neg_first", "pos_first"])
    def test_signed_zero_tie_accepted_either_order(self, zeros):
        # Long enough that an unstable sort on encode would reorder the tie.
        zeros = zeros * 40
        sk = ReqSketch(32).update([-1.0, *zeros, 1.0])
        blob = serde.to_bytes(sk)
        items = np.frombuffer(blob, "<f8", len(zeros) + 2, _first_item(sk))
        assert np.signbit(items).tolist() == [True, *np.signbit(zeros).tolist(), False]
        assert serde.to_bytes(serde.from_bytes(blob)) == blob

    def test_no_levels_rejected(self):
        blob = serde.to_bytes(ReqSketch(4))
        _rejected(_patched(blob, _at("L"), "<I", 0)[: serde._HEAD.size], "at least one level")

    def test_N_below_2_rejected_for_an_empty_sketch(self):
        # N0 = 2 makes min_B the B of N = 1 too, so only the N check fails.
        sk = ReqSketch(4, N0=2)
        assert sk.B == params.geometry(4, 1)
        _rejected(_patched(serde.to_bytes(sk), _at("N_lo"), "<Q", 1), "2 <= N")

    def test_weight_beyond_64_bits_rejected(self):
        """One item at level 64 weighs 2**64: no u64 n is its sum."""
        sk = ReqSketch(4, N0=2 ** 100)
        sk.levels = [RelativeCompactor() for _ in range(64)] + [RelativeCompactor(0, np.ones(1))]
        _rejected(serde.to_bytes(sk), "sum to n")

    def test_column_raises_for_its_first_bad_row(self):
        sk, blob = _golden("fixed_k")
        nan = _patched(blob, _first_item(sk), "<d", math.nan)
        odd_k = _patched(blob, _at("k"), "<I", 5)
        zero_k = _patched(blob, _at("k"), "<I", 0)
        for later in (odd_k, zero_k):
            with pytest.raises(ValueError, match="NaN"):
                serde.decode_column(pa.array([blob, nan, later], pa.binary()))
        with pytest.raises(ValueError, match="even"):
            serde.decode_column(pa.array([blob, odd_k, nan], pa.binary()))

    def test_never_unpickles(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pickle.loads called on sketch bytes")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        v1 = b"REPROSK1" + pickle.dumps(
            {
                "type": "req",
                "version": 1,
                "k": 8,
                "khat": None,
                "k_const": 32,
                "schedule": "req",
                "N": 64,
                "n": 2,
                "min_B": 64,
                "levels": [{"state": 0, "schedule": "req", "values": np.array([1.0, 2.0])}],
                "rng_state": np.random.default_rng(0).bit_generator.state,
            }
        )
        with pytest.raises(ValueError, match="magic"):
            serde.from_bytes(v1)
        for name in GOLDEN:
            serde.from_bytes(_golden(name)[1])


class TestEncoder:
    def test_levels_written_sorted_whatever_their_order_in_memory(self):
        items = _items(60)
        a, b = ReqSketch(4, seed=7).update(items), ReqSketch(4, seed=7).update(items)
        b.levels = [RelativeCompactor(lv.state, lv.values()[::-1]) for lv in b.levels]
        assert any(np.any(np.diff(lv.values()) < 0) for lv in b.levels)
        assert serde.to_bytes(a) == serde.to_bytes(b) == _golden("fixed_k")[1]

    def test_only_req_sketches(self):
        with pytest.raises(TypeError):
            serde.to_bytes(KllSketch(k=50).update([1.0, 2.0]))

    def test_N_beyond_64_bits_is_lossless(self):
        sk = ReqSketch(4, seed=1, N0=2 ** 100 + 3).update(_items(50))
        blob = serde.to_bytes(sk)
        cp = serde.from_bytes(blob)
        assert cp.N == sk.N and cp.B == sk.B
        assert serde.to_bytes(cp) == blob

    def test_N_beyond_128_bits_refused(self):
        with pytest.raises(ValueError, match="128 bits"):
            serde.to_bytes(ReqSketch(4, N0=2 ** 128))

    def test_largest_k_round_trips(self):
        """The constructor refuses a k of 2**32 or more, so the encoder has
        no k to refuse: the largest even u32 is written and read back."""
        sk = ReqSketch(2 ** 32 - 2).update([1.0, 2.0])
        blob = serde.to_bytes(sk)
        for cp in (serde.from_bytes(blob), serde.decode_column(pa.array([blob], pa.binary())).sketch(0)):
            assert cp.k == 2 ** 32 - 2
            assert serde.to_bytes(cp) == blob

    def test_non_pcg64_generator_refused(self):
        sk = ReqSketch(4)
        sk.rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(ValueError, match="PCG64"):
            serde.to_bytes(sk)

    def test_decoded_levels_are_read_only(self):
        sk = serde.from_bytes(_golden("fixed_k")[1])
        assert not any(lv.values().flags.writeable for lv in sk.levels)


@functools.lru_cache(maxsize=None)
def _fuzz_blob(name):
    return _golden(name)[1] if name in GOLDEN else BLOBS[name]()


class TestDecoderFuzz:
    """Bytes from an untrusted column: a valid blob with bytes flipped, or
    cut short, either raises ``ValueError`` or decodes to a sketch whose
    encoding is those very bytes."""

    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from([*GOLDEN, *BLOBS]), data=st.data())
    def test_flipped_or_truncated_blob(self, name, data):
        blob = bytearray(_fuzz_blob(name))
        table_end = _level_at(struct.unpack_from("<I", blob, _at("L"))[0])
        offsets = st.one_of(st.integers(0, table_end - 1), st.integers(0, len(blob) - 1))
        for at, mask in data.draw(st.lists(st.tuples(offsets, st.integers(1, 255)), max_size=3)):
            blob[at] ^= mask
        end = data.draw(st.one_of(st.none(), st.integers(0, len(blob) - 1)))
        blob = bytes(blob[:end])
        try:
            sk = serde.from_bytes(blob)
        except ValueError as e:
            error = str(e)
        else:
            error = None
            assert serde.to_bytes(sk) == blob
        # The column decoder agrees, message included: the blob alone, and
        # between two valid blobs, in both Arrow binary types.
        valid = _fuzz_blob("fixed_k")
        for rows, at in [([blob], 0), ([valid, blob, valid], 1)]:
            for kind in (pa.binary(), pa.large_binary()):
                column = pa.array(rows, kind)
                if error is None:
                    assert serde.to_bytes(serde.decode_column(column).sketch(at)) == blob
                else:
                    with pytest.raises(ValueError) as info:
                        serde.decode_column(column)
                    assert str(info.value) == error


def _rollup_bytes(blobs):
    """The reference rollup: decode each blob, then fold left to right."""
    return serde.to_bytes(merge_sequential([serde.from_bytes(b) for b in blobs]))


class TestColumn:
    """``decode_column`` reads an Arrow column of blobs as ``from_bytes``
    reads each one."""

    def _blobs(self):
        return [serde.to_bytes(ReqSketch(8, seed=i).update(_items(i * 9))) for i in range(12)]

    @pytest.mark.parametrize("kind", [pa.binary(), pa.large_binary()], ids=str)
    def test_rows_decode_as_from_bytes(self, kind):
        blobs = [*self._blobs(), *(_golden(name)[1] for name in GOLDEN)]
        col = serde.decode_column(pa.array(blobs, kind))
        assert len(col) == len(blobs)
        for i, blob in enumerate(blobs):
            sk = col.sketch(i)
            assert serde.to_bytes(sk) == blob
            assert not any(lv.values().flags.writeable for lv in sk.levels if len(lv))
        assert not col.items.flags.writeable

    def test_sliced_and_chunked_arrays(self):
        blobs = self._blobs()
        arr = pa.array(blobs, pa.binary())
        col = serde.decode_column(arr.slice(3, 5))
        assert [serde.to_bytes(col.sketch(i)) for i in range(len(col))] == blobs[3:8]
        chunked = pa.chunked_array([arr.slice(0, 4), arr.slice(4, 0), arr.slice(4)])
        col = serde.decode_column(chunked)
        assert [serde.to_bytes(col.sketch(i)) for i in range(len(col))] == blobs

    def test_null_row_rejected(self):
        with pytest.raises(ValueError, match="row 1 of the sketch column is null"):
            serde.decode_column(pa.array([self._blobs()[0], None], pa.binary()))

    @pytest.mark.parametrize("column", [pa.array([1, 2]), pa.array(["RQSK"]), [b"RQSK"]], ids=["int", "str", "list"])
    def test_not_binary_rejected(self, column):
        with pytest.raises(TypeError):
            serde.decode_column(column)

    def test_empty_column_has_no_rollup(self):
        with pytest.raises(ValueError) as want:
            merge_sequential([])
        for column in [pa.array([], pa.binary()), pa.chunked_array([], pa.large_binary())]:
            assert len(serde.decode_column(column)) == 0
            with pytest.raises(ValueError) as got:
                serde.merge_column(column)
            assert str(got.value) == str(want.value)


def _table_sketch(family, seed, n, N0):
    """A sketch of ``n`` lognormal items in one table's ``family``:
    (schedule, k)."""
    schedule, k = family
    sk = ReqSketch(k, seed=seed, schedule=schedule, N0=N0)
    return sk.update(np.random.default_rng(seed).lognormal(3.0, 1.5, n))


class TestMergeColumn:
    """``merge_column`` gives the bytes of ``merge_sequential`` over
    ``from_bytes`` of each blob, for any table."""

    @settings(max_examples=120, deadline=None)
    @given(
        family=st.tuples(st.sampled_from(["req", "all"]), st.sampled_from([2, 4, 8])),
        specs=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 24), st.integers(0, 400)),  # n: mostly never compacted
                st.sampled_from([None, 4, 16, 4096]),  # N0: default, smaller, larger
            ),
            min_size=1,
            max_size=40,
        ),
        large=st.booleans(),
        data=st.data(),
    )
    def test_same_bytes_as_sequential_merge(self, family, specs, large, data):
        blobs = [serde.to_bytes(_table_sketch(family, seed, *spec)) for seed, spec in enumerate(specs)]
        arr = pa.array(blobs, pa.large_binary() if large else pa.binary())
        cuts = sorted(data.draw(st.lists(st.integers(0, len(blobs)), max_size=3)))
        bounds = [0, *cuts, len(blobs)]
        column = pa.chunked_array([arr.slice(a, b - a) for a, b in zip(bounds, bounds[1:])], arr.type)
        assert serde.to_bytes(serde.merge_column(column)) == _rollup_bytes(blobs)

    def test_many_small_blobs_growing_N(self):
        rng = np.random.default_rng(4)
        blobs = [
            serde.to_bytes(ReqSketch(4, seed=g).update(rng.lognormal(3.0, 1.5, int(rng.integers(1, 16)))))
            for g in range(2_000)
        ]
        merged = serde.merge_column(pa.array(blobs, pa.binary()))
        assert merged.N > ReqSketch(4).N ** 2  # grew at least twice
        assert serde.to_bytes(merged) == _rollup_bytes(blobs)

    def test_result_holds_no_view_of_the_column(self, monkeypatch):
        """A view would keep every item of the column alive."""
        decoded, decode = [], serde.decode_column
        monkeypatch.setattr(serde, "decode_column", lambda array: decoded.append(decode(array)) or decoded[-1])
        # The first sketch's upper levels receive nothing from the rest.
        blobs = [serde.to_bytes(ReqSketch(4, seed=s).update(_items(60 if s == 0 else 2))) for s in range(5)]
        merged = serde.merge_column(pa.array(blobs, pa.binary()))
        (col,) = decoded
        assert merged.num_levels > 1
        assert not any(np.shares_memory(lv.values(), col.items) for lv in merged.levels)

    def test_growth_inside_a_run(self):
        """An operand that takes n past N grows the accumulator after the
        run before it is appended: growth special-compacts a level 0 that
        holds the run's items."""
        rng = np.random.default_rng(5)
        acc = ReqSketch(4, N0=4096, seed=1).update(rng.lognormal(size=4_000))
        blobs = [serde.to_bytes(acc)]
        blobs += [serde.to_bytes(ReqSketch(4).update(rng.lognormal(size=3))) for _ in range(60)]
        merged = serde.merge_column(pa.array(blobs, pa.binary()))
        assert merged.N > acc.N
        assert serde.to_bytes(merged) == _rollup_bytes(blobs)

    def test_empty_sketch_with_smaller_N0_leaves_min_B(self):
        """``merge`` ignores an empty operand, so its smaller ``min_B`` must
        not reach the result, in a run of small operands or not."""
        small = [serde.to_bytes(ReqSketch(8, seed=s).update(_items(5 + s))) for s in range(4)]
        empty = serde.to_bytes(ReqSketch(8, N0=16))
        blobs = [small[0], small[1], empty, small[2], small[3]]
        merged = serde.merge_column(pa.array(blobs, pa.binary()))
        assert merged.protected_head == ReqSketch(8).protected_head > serde.from_bytes(empty).protected_head
        assert serde.to_bytes(merged) == _rollup_bytes(blobs)

    def test_run_takes_its_smallest_min_B(self):
        """The smallest ``min_B`` of a run need not be its first."""
        sizes = [ReqSketch(4, N0=N0).B for N0 in (4096, None, 16)]
        assert sizes[0] > sizes[1] > sizes[2]
        blobs = [serde.to_bytes(ReqSketch(4, N0=N0).update(_items(9))) for N0 in (4096, None, 16, None)]
        merged = serde.merge_column(pa.array(blobs, pa.binary()))
        assert merged.protected_head == sizes[2] // 2
        assert serde.to_bytes(merged) == _rollup_bytes(blobs)

    @pytest.mark.parametrize(
        "first, second",
        [
            (lambda: ReqSketch(8), lambda: ReqSketch(8, schedule="all")),
            (lambda: ReqSketch(8), lambda: ReqSketch(4)),
        ],
        ids=["schedule", "k"],
    )
    def test_mismatched_blobs_raise_the_merge_error(self, first, second):
        sketches = [first().update(_items(10)), second().update(_items(10))]
        assert all(sk.num_levels == 1 for sk in sketches)
        blobs = [serde.to_bytes(sk) for sk in sketches]
        with pytest.raises(ValueError) as want:
            _rollup_bytes(blobs)
        with pytest.raises(ValueError) as got:
            serde.merge_column(pa.array(blobs, pa.binary()))
        assert str(got.value) == str(want.value)

    def test_operand_with_N_beyond_64_bits(self):
        """A one-level blob whose N needs the high half grows the
        accumulator to its epoch."""
        blobs = [serde.to_bytes(ReqSketch(4, N0=N0).update(_items(5))) for N0 in (None, 2 ** 64 + 5, None)]
        merged = serde.merge_column(pa.array(blobs, pa.binary()))
        assert merged.N >= 2 ** 64 + 5
        assert serde.to_bytes(merged) == _rollup_bytes(blobs)
