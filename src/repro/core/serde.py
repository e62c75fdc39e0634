"""The sketch wire format: one validated little-endian byte layout.

Executors build partial sketches per partition and return them to the
driver (or to ``treeReduce`` combiners) as opaque ``bytes`` columns;
this module is the only code that writes or reads those bytes.  Only
``ReqSketch`` goes on the wire, and this module reads and rebuilds a
sketch only through its state (``ReqSketch._state`` and
``ReqSketch._from_state``).

A blob is a header (``_HEAD``), a level table of L rows (``_LEVEL``),
then every level's items as float64, level 0 first, each level in
non-descending order.  Both tables are declared once, below, as ordered
field lists, from which the ``struct`` of the scalar decoder and the
numpy record of the column decoder are built.  Everything is
little-endian with no padding; a u128 is two u64, low half first.

Each level's items are written sorted, whatever their order in memory
(compaction leaves a level's kept items unsorted), so one sketch state
has one encoding, unique up to the order of tied -0.0 and 0.0 items.
The sort is stable, so a decoded sketch re-encodes byte for byte.
Versions 1 and 2, retired formats, have no reader.  ``from_bytes``
checks the whole blob before it builds a sketch and raises
``ValueError`` on any malformed input, a level out of order included.
It accepts any bytes-like object and copies only one that is not
``bytes``: a decoded sketch's level arrays are read-only views of the
blob (``RelativeCompactor`` never writes into a level array in place),
so they must not see a caller's later writes.  The capacity checks use
the buffer size B the sketch itself is built with (``params.geometry``).

``from_bytes`` is the decoder of one blob and the reference for the
column decoder.  ``decode_column`` reads the offsets and data buffers of
a ``binary`` or ``large_binary`` Arrow array (``toArrow`` returns the
latter under ``spark.sql.execution.arrow.useLargeVarTypes``), gathers
every header and level-table row with numpy, runs each of
``from_bytes``'s checks as an array comparison, and gathers every item
into one read-only array.  Where a row fails a check it calls
``from_bytes`` on the first such row, so the ``ValueError`` a column
raises is the scalar decoder's.  Both decoders turn a header into a
sketch state with ``_header_state``.  ``merge_column`` folds a decoded
column left to right without a sketch object per small blob (see
there); the bytes are those of ``merge_sequential`` over ``from_bytes``
of each blob.
"""
from __future__ import annotations

import math
import struct
from collections import namedtuple
from itertools import accumulate
from operator import lshift
from typing import Optional, Tuple, Union

import numpy as np
import pyarrow as pa

from repro.core import params as P
from repro.core.req_sketch import ReqSketch

_MAGIC = b"RQSK"
_VERSION = 3
_SCHEDULES = ("req", "all")
# k-hat's field of a fixed-k sketch: the bits of the canonical quiet NaN.
_NAN_U64 = 0x7FF8000000000000
_ITEM = np.dtype("<f8")
_U64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_F8 = struct.Struct("<d")
# ``struct`` codes by numpy kind and item size.  numpy's own type codes
# are platform C types: ``np.dtype('<u8').char`` is ``'L'``, which
# ``struct`` reads as 4 bytes under ``<``.
_STRUCT_CODES = {("u", 1): "B", ("u", 4): "I", ("u", 8): "Q"}


def _layout(*fields: Tuple[str, str]) -> Tuple[struct.Struct, np.dtype]:
    """The ``struct`` and the numpy record of the little-endian, unpadded
    layout of ``fields``, (name, numpy type) pairs in wire order."""
    dtype = np.dtype(list(fields))
    codes = [
        f"{t.itemsize}s" if t.kind == "S" else _STRUCT_CODES[t.kind, t.itemsize]
        for t in (dtype[name] for name in dtype.names)
    ]
    return struct.Struct("<" + "".join(codes)), dtype


_HEAD, _HEAD_ROW = _layout(
    ("magic", "S4"), ("version", "u1"), ("sched", "u1"), ("k", "<u4"),
    ("khat", "<u8"),  # k-hat's float64 bits, _NAN_U64 for a fixed k
    ("k_const", "<u4"), ("N_lo", "<u8"), ("N_hi", "<u8"), ("n", "<u8"), ("min_B", "<u8"),
    ("L", "<u4"),  # level count
    # PCG64 state, inc, has_uint32 and uinteger
    ("s_lo", "<u8"), ("s_hi", "<u8"), ("i_lo", "<u8"), ("i_hi", "<u8"), ("has_uint32", "u1"), ("uinteger", "<u4"),
)
_LEVEL, _LEVEL_ROW = _layout(("state", "<u8"), ("count", "<u4"))  # per level: C, item count
_Head = namedtuple("_Head", _HEAD_ROW.names)


def to_bytes(sketch: ReqSketch) -> bytes:
    """Serialize a ``ReqSketch``."""
    if not isinstance(sketch, ReqSketch):
        raise TypeError(f"only ReqSketch has a wire format, not {type(sketch).__name__}")
    schedule, k, khat, k_const, N, n, min_B, rng_src, levels = sketch._state()
    if N >> 128:
        raise ValueError(f"N = {N} does not fit the format's 128 bits")
    for name, value in (("k", k), ("k_const", k_const)):
        if value >> 32:
            raise ValueError(f"{name} = {value} does not fit the format's 32 bits")
    # A sketch that never drew may hold a seed, not PCG64 fields.
    state, inc, has_uint32, uinteger = rng_src if isinstance(rng_src, tuple) else sketch._rng_state()
    items = [np.sort(v, kind="stable") for _, v in levels]
    head = _HEAD.pack(*_Head(
        magic=_MAGIC, version=_VERSION, sched=_SCHEDULES.index(schedule), k=k,
        khat=_NAN_U64 if khat is None else int.from_bytes(_F8.pack(khat), "little"),
        k_const=k_const, N_lo=N & _U64, N_hi=N >> 64, n=n, min_B=min_B, L=len(items),
        s_lo=state & _U64, s_hi=state >> 64, i_lo=inc & _U64, i_hi=inc >> 64,
        has_uint32=has_uint32, uinteger=uinteger,
    ))
    table = [_LEVEL.pack(lv_state, v.size) for (lv_state, _), v in zip(levels, items)]
    return b"".join([head, *table, *(v.astype(_ITEM, copy=False).tobytes() for v in items)])


def _header_state(h: _Head) -> tuple:
    """``ReqSketch._state()`` of a header with a known schedule byte,
    levels left out; k-hat is None only for the canonical NaN."""
    return (
        _SCHEDULES[h.sched], h.k,
        None if h.khat == _NAN_U64 else _F8.unpack(h.khat.to_bytes(8, "little"))[0],
        h.k_const, h.N_lo | h.N_hi << 64, h.n, h.min_B,
        (h.s_lo | h.s_hi << 64, h.i_lo | h.i_hi << 64, h.has_uint32, h.uinteger),
    )


def from_bytes(blob: Union[bytes, bytearray, memoryview]) -> ReqSketch:
    """Validate a blob and rebuild its sketch.  Builds no generator: the
    PCG64 fields are restored at the sketch's first draw."""
    if type(blob) is not bytes:
        blob = bytes(blob)
    size = len(blob)
    if not blob.startswith(_MAGIC):
        raise ValueError("not a sketch blob (bad magic)")
    if size < _HEAD.size:
        raise ValueError(f"truncated sketch blob: {size} bytes")
    h = _Head(*_HEAD.unpack_from(blob))
    if h.version != _VERSION:
        raise ValueError(f"unsupported sketch format version {h.version}")
    L = h.L
    table_end = _HEAD.size + L * _LEVEL.size
    if size < table_end:
        raise ValueError(f"truncated sketch blob: {size} bytes, table ends at {table_end}")
    levels = list(_LEVEL.iter_unpack(memoryview(blob)[_HEAD.size : table_end]))
    counts = [count for _, count in levels]
    ends = list(accumulate(counts))
    total = ends[-1] if ends else 0
    if size != table_end + total * _ITEM.itemsize:
        raise ValueError(
            f"sketch blob holds {size} bytes, its layout {table_end + total * _ITEM.itemsize}"
        )
    if h.sched >= len(_SCHEDULES):
        raise ValueError(f"unknown schedule byte {h.sched}")
    state = _header_state(h)
    _, k, khat, k_const, N, n, min_B, _ = state
    if k < 2 or k % 2:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    if k_const == 0:
        raise ValueError(f"k_const must be a positive integer, got {k_const}")
    if N < 2 or n > N:
        raise ValueError(f"need 2 <= N and n <= N, got N = {N}, n = {n}")
    if khat is None:
        pass
    elif math.isnan(khat):
        raise ValueError("k-hat of a fixed-k sketch must be the canonical NaN")
    elif not (math.isfinite(khat) and khat > 0):
        raise ValueError(f"k-hat must be finite and positive, got {khat}")
    elif k != (k_N := _k_of_N(khat, N, k_const)):
        raise ValueError(f"k = {k} is not k(N) = {k_N}")
    B = P.geometry(k, N)
    if not 0 < min_B <= B:
        raise ValueError(f"need 0 < min_B <= B = {B}, got {min_B}")
    if h.has_uint32 > 1:
        raise ValueError(f"PCG64 has_uint32 must be 0 or 1, got {h.has_uint32}")
    if not h.i_lo & 1:
        raise ValueError("PCG64 increment must be odd")
    if L == 0:
        raise ValueError("a sketch has at least one level")
    if max(counts) > B:
        raise ValueError(f"a level holds more than B = {B} items")
    if sum(map(lshift, counts, range(L))) != n:
        raise ValueError(f"level weights do not sum to n = {n}")
    items = np.frombuffer(blob, _ITEM, total, table_end)
    # One comparison finds both faults, as a NaN fails every comparison it
    # is in, and count_nonzero is cheaper than all(): this runs once per
    # blob, and a rollup decodes thousands of small blobs.  A lone item
    # is in no comparison.
    if total > 1:
        clean = np.count_nonzero(items[1:] >= items[:-1]) == total - 1
    else:
        clean = not (total and math.isnan(items[0]))
    if not clean:
        if np.count_nonzero(np.isnan(items)):
            raise ValueError("NaN item in sketch blob")
        # A descent is allowed only where a level starts.
        descents = np.flatnonzero(items[1:] < items[:-1]) + 1
        if not set(ends).issuperset(descents.tolist()):
            raise ValueError("a level's items are not in non-descending order")
    return ReqSketch._from_state(
        *state, [(lv_state, items[end - count : end]) for (lv_state, count), end in zip(levels, ends)]
    )


def _k_of_N(khat: float, N: int, k_const: int) -> Optional[int]:
    """k(N) of an adaptive-k blob, None where k-hat * k_const is beyond a float."""
    try:
        return P.k_of_N(khat, N, const=k_const)
    except OverflowError:
        return None


class SketchColumn:
    """A validated column of sketch blobs: every row's header fields,
    level table and items, with all items in one read-only array."""

    def __init__(self, head, level_lo, states, item_lo, items) -> None:
        self.head = head  # one ``_HEAD_ROW`` record per row
        self.level_lo = level_lo  # row i's levels are level_lo[i]:level_lo[i + 1]
        self.states = states  # per level
        self.item_lo = item_lo  # level j's items are items[item_lo[j]:item_lo[j + 1]]
        self.items = items

    def __len__(self) -> int:
        return self.head.size

    def sketch(self, i: int) -> ReqSketch:
        """Row ``i``'s sketch, as ``from_bytes`` builds it from the row's blob."""
        levels = range(self.level_lo[i], self.level_lo[i + 1])
        return ReqSketch._from_state(
            *_header_state(_Head(*self.head[i].item())),
            [(int(self.states[j]), self.items[self.item_lo[j] : self.item_lo[j + 1]]) for j in levels],
        )


def _buffers(array) -> Tuple[np.ndarray, np.ndarray]:
    """The data bytes and the int64 row offsets of a non-null ``binary``
    or ``large_binary`` Arrow array or chunked array."""
    if not isinstance(array, (pa.Array, pa.ChunkedArray)) or not (
        pa.types.is_binary(array.type) or pa.types.is_large_binary(array.type)
    ):
        got = getattr(array, "type", type(array))
        raise TypeError(f"need a binary Arrow array of sketch blobs, got {got}")
    if isinstance(array, pa.ChunkedArray):
        array = array.chunk(0) if array.num_chunks == 1 else array.combine_chunks()
    if array.null_count:
        row = int(np.argmax(array.is_null().to_numpy(zero_copy_only=False)))
        raise ValueError(f"row {row} of the sketch column is null")
    _, offsets, data = array.buffers()
    width = np.dtype("<i8" if pa.types.is_large_binary(array.type) else "<i4")
    offsets = np.frombuffer(offsets, width, len(array) + 1, array.offset * width.itemsize)
    data = np.frombuffer(data, np.uint8) if data is not None else np.empty(0, np.uint8)
    return data, offsets.astype(np.int64)


def _gather(data: np.ndarray, at: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """One ``dtype`` record read at each byte offset ``at`` of ``data``:
    row o of the strided window view is bytes o .. o + itemsize - 1."""
    size = dtype.itemsize
    windows = np.lib.stride_tricks.as_strided(
        data, (max(data.size - size + 1, 0), size), (1, 1), writeable=False
    )
    return windows[at].view(dtype)[:, 0]


def _buffer_sizes(k: np.ndarray, N_lo: np.ndarray, N_hi: np.ndarray) -> np.ndarray:
    """B = ``params.geometry(k, N)`` per row (every k even and >= 2),
    computed once per distinct (k, N): a column holds few."""
    order = np.lexsort((N_hi, N_lo, k))
    keys = [k[order], N_lo[order], N_hi[order]]
    new = np.ones(order.size, bool)
    new[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in keys])
    Bs = [P.geometry(kk, lo | hi << 64) for kk, lo, hi in zip(*(key[new].tolist() for key in keys))]
    B = np.empty(order.size, np.uint64)
    B[order] = np.array(Bs, np.uint64)[np.cumsum(new) - 1]
    return B


def _segment_sums(values: np.ndarray, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The sum of ``values[first[i] : first[i] + count[i]]`` for each i, in
    uint64: exact wherever that sum is below 2**64."""
    cum = np.concatenate([np.zeros(1, np.uint64), np.cumsum(values, dtype=np.uint64)])
    return cum[first + count] - cum[first]


def decode_column(array) -> SketchColumn:
    """Validate every blob of a ``binary`` or ``large_binary`` Arrow array
    (or chunked array) at once and return the column.

    Runs each check of ``from_bytes`` as an array comparison over all rows.
    Where a row fails one, ``from_bytes`` decodes the first such row, so
    the ``ValueError`` and its message are the scalar decoder's.  Raises
    ``TypeError`` for an array that is not binary and ``ValueError`` for a
    null row.
    """
    data, offsets = _buffers(array)
    starts, sizes = offsets[:-1], np.diff(offsets)
    ok = np.zeros(sizes.size, bool)

    # Headers: every row long enough to hold one.
    rows = np.flatnonzero(sizes >= _HEAD.size)
    head = _gather(data, starts[rows], _HEAD_ROW)
    k, L = head["k"], head["L"].astype(np.int64)
    N_lo, N_hi, n = head["N_lo"], head["N_hi"], head["n"]
    table_end = _HEAD.size + _LEVEL.size * L
    good = (
        (head["magic"] == _MAGIC) & (head["version"] == _VERSION)
        & (table_end <= sizes[rows]) & (head["sched"] < len(_SCHEDULES))
        & (k >= 2) & (k % 2 == 0) & (head["k_const"] > 0)
        & ((N_hi > 0) | ((N_lo >= 2) & (n <= N_lo)))
        & (head["has_uint32"] <= 1) & (head["i_lo"] & 1 == 1) & (L >= 1)
    )
    khat = head["khat"].view("<f8")
    fixed = np.isnan(khat)
    good &= np.where(fixed, head["khat"] == _NAN_U64, np.isfinite(khat) & (khat > 0))
    for i in np.flatnonzero(good & ~fixed).tolist():
        N = int(N_lo[i]) | int(N_hi[i]) << 64
        good[i] = int(k[i]) == _k_of_N(float(khat[i]), N, int(head["k_const"][i]))
    B = np.zeros(rows.size, np.uint64)
    B[good] = _buffer_sizes(k[good], N_lo[good], N_hi[good])
    good &= (head["min_B"] > 0) & (head["min_B"] <= B)

    # Level tables: every row whose table fits and whose header passed.
    t = np.flatnonzero(good)
    Lt = L[t]
    first = np.cumsum(Lt) - Lt
    owner = np.repeat(np.arange(t.size), Lt)
    h = np.arange(owner.size) - first[owner]  # level number
    at = starts[rows[t]][owner] + _HEAD.size + _LEVEL.size * h
    table = _gather(data, at, _LEVEL_ROW)
    counts = table["count"].astype(np.uint64)
    total = _segment_sums(counts, first, Lt).astype(np.int64)
    rest = sizes[rows[t]] - table_end[t]
    fit = (rest % _ITEM.itemsize == 0) & (rest // _ITEM.itemsize == total)
    fit[owner[counts > B[t][owner]]] = False
    # Weights: count << h sums to n.  A term is below 2**64 where it can
    # be, and the sum is taken in 32-bit halves, so it is exact.
    small = (counts == 0) | ((h < 64) & (counts >> np.minimum(64 - h, 63).astype(np.uint64) == 0))
    fit[owner[~small]] = False
    terms = np.where(small, counts << np.minimum(h, 63).astype(np.uint64), 0).astype(np.uint64)
    lo = _segment_sums(terms & _LOW32, first, Lt)
    hi = _segment_sums(terms >> np.uint64(32), first, Lt) + (lo >> np.uint64(32))
    fit &= (hi == n[t] >> np.uint64(32)) & ((lo & _LOW32) == n[t] & _LOW32)

    # Items: every row whose layout holds.
    kept = fit[owner]
    t, Lt, total, counts = t[fit], Lt[fit], total[fit], counts[kept].astype(np.int64)
    item_lo = np.concatenate([[0], np.cumsum(counts)])
    row_lo = np.concatenate([[0], np.cumsum(total)])
    begin = starts[rows[t]] + table_end[t] - _ITEM.itemsize * row_lo[:-1]
    at = np.repeat(begin, total) + _ITEM.itemsize * np.arange(row_lo[-1])
    items = _gather(data, at, _ITEM)
    # A NaN fails every comparison it is in; a descent is allowed only
    # where a level starts.
    starts_level = np.zeros(items.size + 1, bool)
    starts_level[item_lo] = True
    descent = np.concatenate([[False], (items[1:] < items[:-1]) & ~starts_level[1:-1]])
    bad = np.flatnonzero(np.isnan(items) | descent)
    clean = np.ones(t.size, bool)
    clean[np.searchsorted(row_lo, bad, side="right") - 1] = False
    ok[rows[t[clean]]] = True

    if not ok.all():
        row = int(np.argmin(ok))
        from_bytes(data[starts[row] : starts[row] + sizes[row]].tobytes())
        raise RuntimeError(f"row {row} fails the column checks but decodes alone")
    items.flags.writeable = False
    level_lo = np.concatenate([[0], np.cumsum(Lt)])
    return SketchColumn(head, level_lo, table["state"][kept], item_lo, items)


def merge_column(array) -> ReqSketch:
    """Decode a column of sketch blobs (``decode_column``) and merge its
    rows left to right into the first row's sketch.

    The bytes are those of ``merge_sequential([from_bytes(b) for b in
    blobs])``.  An operand with one level in state 0 and n > 0, of fixed
    k with the accumulator's k and schedule (a fixed-k merge reads no
    other parameter) and an N no larger than its N needs no special
    compaction, and its merge (``ReqSketch._absorb``, given the
    operand's N) grows the accumulator if need be and appends its items
    to level 0.  Such operands are merged without a sketch of their
    own: one at a time where one grows the accumulator, and otherwise a
    run at once, given the run's largest N, up to the operand at which
    level 0 reaches B.  Every other operand goes through
    ``ReqSketch.merge``.  Raises ``ValueError`` for an empty column.
    """
    col = decode_column(array)
    if not len(col):
        raise ValueError("no partial sketches to merge (empty input?)")
    acc = col.sketch(0)
    head = col.head
    plain = (
        (head["L"] == 1) & (col.states[col.level_lo[:-1]] == 0) & (head["n"] > 0)
        & (head["khat"] == _NAN_U64) & (head["khat"][0] == _NAN_U64) & (head["k"] == acc.k)
        & (head["sched"] == _SCHEDULES.index(acc.schedule)) & (head["N_hi"] == 0)
    ).tolist()
    ns, Ns, min_Bs = head["n"].tolist(), head["N_lo"].tolist(), head["min_B"]
    item_lo = col.item_lo[col.level_lo].tolist()  # where each row's items start

    def absorb(lo: int, hi: int, count: int) -> None:
        """Merge rows lo..hi-1, plain operands of ``count`` items in all."""
        if count:
            run = col.items[item_lo[lo] : item_lo[hi]]
            acc._absorb(count, max(Ns[lo:hi]), int(min_Bs[lo:hi].min()), [(0, run)])

    lo, count = 1, 0  # the pending run: rows lo..i-1, ``count`` items
    for i in range(1, len(col)):
        if not (plain[i] and Ns[i] <= acc.N):
            absorb(lo, i, count)
            acc.merge(col.sketch(i))
        elif acc.n + count + ns[i] > acc.N:  # row i grows the accumulator
            absorb(lo, i, count)
            absorb(i, i + 1, ns[i])
        elif len(acc.levels[0]) + count + ns[i] >= acc.B:
            absorb(lo, i + 1, count + ns[i])
        else:
            count += ns[i]
            continue
        lo, count = i + 1, 0
    absorb(lo, len(col), count)
    # A level array that is a view of the column's items would keep every
    # item of the column alive as long as the result.
    *state, levels = acc._state()
    return ReqSketch._from_state(*state, [(lv_state, v.copy()) for lv_state, v in levels])
