"""The sketch wire format: one validated little-endian byte layout.

Executors build partial sketches per partition and return them to the
driver (or to ``treeReduce`` combiners) as opaque ``bytes`` columns;
this module is the only code that writes or reads those bytes.  Only
``ReqSketch`` goes on the wire.

Layout (``struct``, little-endian, no padding; a u128 is two u64, low
half first)::

    offset  type     field
    0       4s       magic b"RQSK"
    4       u8       version, 3
    5       u8       schedule: 0 = "req", 1 = "all"
    6       u32      k
    10      f8       k-hat, NaN (0x7ff8000000000000) for a fixed-k sketch
    18      u32      k_const
    22      u128     N
    38      u64      n
    46      u64      min_B
    54      u32      level count L
    58      u128     PCG64 state
    74      u128     PCG64 inc
    90      u8       PCG64 has_uint32
    91      u32      PCG64 uinteger
    95      L x 12   per level: schedule state (u64), item count (u32)
    95+12L  f8       every level's items, level 0 first, each level
                     in non-descending order

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
the epoch geometry the sketch itself is built with (``params.geometry``).
"""
from __future__ import annotations

import math
import struct
from itertools import accumulate
from operator import lshift
from typing import Union

import numpy as np

from repro.core import params as P
from repro.core.compactor import RelativeCompactor
from repro.core.req_sketch import ReqSketch

_MAGIC = b"RQSK"
_VERSION = 3
_SCHEDULES = ("req", "all")
_HEAD = struct.Struct("<4sBBIdIQQQQIQQQQBI")
_LEVEL = struct.Struct("<QI")
_ITEM = np.dtype("<f8")
_U64 = (1 << 64) - 1
_NAN = struct.pack("<d", math.nan)


def to_bytes(sketch: ReqSketch) -> bytes:
    """Serialize a ``ReqSketch``."""
    if not isinstance(sketch, ReqSketch):
        raise TypeError(f"only ReqSketch has a wire format, not {type(sketch).__name__}")
    N = sketch.N
    if N >> 128:
        raise ValueError(f"N = {N} does not fit the format's 128 bits")
    state, inc, has_uint32, uinteger = sketch._rng_state()
    items = [np.sort(lv.values(), kind="stable") for lv in sketch.levels]
    head = _HEAD.pack(
        _MAGIC, _VERSION, _SCHEDULES.index(sketch.schedule), sketch.k,
        math.nan if sketch._khat is None else sketch._khat, sketch._k_const,
        N & _U64, N >> 64, sketch.n, sketch._min_B, len(items),
        state & _U64, state >> 64, inc & _U64, inc >> 64, has_uint32, uinteger,
    )
    table = [_LEVEL.pack(lv.state, v.size) for lv, v in zip(sketch.levels, items)]
    return b"".join([head, *table, *(v.astype(_ITEM, copy=False).tobytes() for v in items)])


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
    (_, version, sched, k, khat, k_const, N_lo, N_hi, n, min_B, L,
     s_lo, s_hi, i_lo, i_hi, has_uint32, uinteger) = _HEAD.unpack_from(blob)
    if version != _VERSION:
        raise ValueError(f"unsupported sketch format version {version}")
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
    if sched >= len(_SCHEDULES):
        raise ValueError(f"unknown schedule byte {sched}")
    if k < 2 or k % 2:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    N = N_lo | N_hi << 64
    if N < 2 or n > N:
        raise ValueError(f"need 2 <= N and n <= N, got N = {N}, n = {n}")
    if math.isnan(khat):
        if blob[10:18] != _NAN:
            raise ValueError("k-hat of a fixed-k sketch must be the canonical NaN")
        khat = None
    elif not (math.isfinite(khat) and khat > 0):
        raise ValueError(f"k-hat must be finite and positive, got {khat}")
    else:
        try:
            k_N = P.k_of_N(khat, N, const=k_const)
        except OverflowError:  # k-hat * k_const beyond a float
            k_N = None
        if k != k_N:
            raise ValueError(f"k = {k} is not k(N) = {k_N}")
    B = P.geometry(k, N).B
    if not 0 < min_B <= B:
        raise ValueError(f"need 0 < min_B <= B = {B}, got {min_B}")
    if has_uint32 > 1:
        raise ValueError(f"PCG64 has_uint32 must be 0 or 1, got {has_uint32}")
    if not i_lo & 1:
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
    sk = ReqSketch(k, schedule=_SCHEDULES[sched], khat=khat, k_const=k_const, N0=N)
    sk.n, sk._min_B = n, min_B
    sk.levels = [
        RelativeCompactor(state, items[end - count : end])
        for (state, count), end in zip(levels, ends)
    ]
    sk._rng_src = (s_lo | s_hi << 64, i_lo | i_hi << 64, has_uint32, uinteger)
    return sk
