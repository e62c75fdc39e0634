"""The REQ sketch — Relative-Error Quantiles (paper Algorithms 2–4).

A stack of relative-compactors: level h's compaction output feeds level
h+1, where items count with weight 2^h.  The sketch supports

* streaming inserts of arbitrary length with no foreknowledge of n —
  the upper bound N squares (N <- N^2) whenever the processed count
  exceeds it, after App.-C "special compactions" (the paper's
  footnote-7 practical variant of §5);
* full mergeability (Algorithm 4, one routine, ``_absorb``): grow N to
  cover both inputs, special-compact an operand from an earlier epoch
  with its own B, combine schedule states via bitwise OR, concatenate
  buffers, and restore capacity with a single bottom-up compaction
  pass — an arbitrary merge tree preserves the multiplicative error
  guarantee;
* rank / CDF / quantile queries through one cached sorted view of the
  weighted coreset of all levels (``estimator.Queries``).

The section size k is fixed (DataSketches practice): buffers grow only
via num_sections as N squares.  The paper's mergeable analysis instead
recomputes k(N) from k-hat at every growth (Eq. (15)); no caller needs
that, and a fixed k keeps one policy in the sketch and on the wire.

``schedule="all"`` turns the instance into the paper's naive
protect-half strawman (always compact the whole top half) with the
Θ(ε⁻²·log(ε²n)) space/accuracy trade-off; everything else is shared.
"""
from __future__ import annotations

import operator
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core import estimator, params as P
from repro.core.compactor import RelativeCompactor
from repro.core.schedule import merge_states, sections_to_compact

# PCG64 ``(state, inc, has_uint32, uinteger)``.
Pcg64Fields = Tuple[int, int, int, int]


class ReqSketch(estimator.Queries):
    """Mergeable relative-error streaming quantiles sketch.

    ``k`` is the section size.  ``N`` and ``B`` are the current epoch's
    bound on n and buffer size; they change together when N squares.

    A generator costs tens of microseconds to build, as much as decoding a
    small sketch, and a decoded sketch that is only merged, or a group
    sketch that never compacts, never draws.  So a sketch keeps its
    generator's source (a seed, or the PCG64 fields a blob carries) and
    builds it at the first draw; the stream is that of an eagerly built
    generator.
    """

    _rng: Optional[np.random.Generator] = None

    def __init__(
        self,
        k: int = 32,
        *,
        seed: Union[int, np.random.SeedSequence] = 0,
        schedule: str = "req",
        N0: Optional[int] = None,
    ) -> None:
        """An empty sketch with section size ``k``, an even integer >= 2
        (``TypeError`` for one that is not an integer).

        ``seed`` (a non-negative int or a ``numpy.random.SeedSequence``)
        seeds the coin-flip generator, built on first use; assign ``rng``
        to install a ready one.  ``N0``, an integer of at least 2
        (``TypeError`` for one that is not an integer), overrides the
        initial bound on n.  A ``k`` the wire format cannot hold (2**32 or
        more) raises ``ValueError``.
        """
        if schedule not in ("req", "all"):
            raise ValueError(f"schedule must be 'req' or 'all', got {schedule!r}")
        # Checked here, as the generator is built only at the first draw.
        # A type and sign check: building a SeedSequence costs microseconds.
        if not isinstance(seed, np.random.SeedSequence) and operator.index(seed) < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.schedule = schedule
        self.k = operator.index(k)
        N = P.initial_N(self.k)  # raises for a k that is not even and >= 2
        self.N = operator.index(N0) if N0 is not None else N
        if self.N < 2:
            raise ValueError(f"N0 must be >= 2, got {N0}")
        # The wire's k field is a u32.  Checked once: k never changes.
        if self.k >> 32:
            raise ValueError(f"k = {self.k} does not fit the format's 32 bits")
        self.B = P.geometry(self.k, self.N)
        self.levels: List[RelativeCompactor] = [RelativeCompactor()]
        self.n = 0
        # Smallest buffer size ever in force (here or in any merged-in
        # operand): ranks <= _min_B/2 are deterministically exact.
        self._min_B = self.B
        self._rng_src: Union[int, np.random.SeedSequence, Pcg64Fields] = seed

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_error_streaming(cls, eps: float, delta: float, n: int, *, seed: int = 0) -> "ReqSketch":
        """Known-(upper bound on)-n parameterization per Eq. (6) / Theorem 13."""
        k = P.k_streaming(eps, delta, n)
        return cls(k, seed=seed, N0=max(n, P.initial_N(k)))

    @classmethod
    def from_error_small_delta(
        cls, eps: float, delta: float, n: int, *, seed: int = 0
    ) -> "ReqSketch":
        """Theorem 2 parameterization (Eq. (36)) — log log(1/delta) dependence."""
        k = P.k_small_delta(eps, delta)
        return cls(k, seed=seed, N0=max(n, P.initial_N(k)))

    # ------------------------------------------------------------------ sizing

    @property
    def protected_head(self) -> int:
        """Largest rank r such that R-hat(y) == R(y) with probability 1
        for every y of rank <= r, for ANY input order: half the smallest
        buffer size the sketch (or any merged-in operand) ever had.
        Compactions only ever touch slots above the current B/2, so an
        item whose running rank never exceeds min(B)/2 is never compacted."""
        return self._min_B // 2

    # ------------------------------------------------------------------ update

    def update(self, values: Iterable[float] | np.ndarray | float) -> "ReqSketch":
        """Insert a batch (or a single item) into the stream.  The sketch
        keeps a copy of the items, not the caller's array."""
        arr = self._intake(values)
        pos, total, lv0 = 0, arr.size, self.levels[0]
        while pos < total:
            # Level 0 is below B at rest.  Stop where n first exceeds N, so
            # growth runs at the same fill level however calls split the stream.
            take = min(self.B - len(lv0), total - pos, max(1, self.N - self.n + 1))
            lv0.append(arr[pos : pos + take])
            pos += take
            self.n += take
            self._grow_to(self.n)
            if len(lv0) >= self.B:
                self._compact_cascade(top=0)
        return self

    # ------------------------------------------------------------------- merge

    def merge(self, other: "ReqSketch") -> "ReqSketch":
        """Merge ``other`` into ``self`` (Algorithm 4).

        ``other`` is unchanged, and is never copied: the merge reads a
        snapshot of its levels' (schedule state, items), which stays
        valid while ``self`` changes, as no code writes into a level
        array in place; so ``other`` may be ``self``.  The target may
        share read-only level arrays with it.  Both operands must share
        the section size k and the schedule flavour.
        """
        self._check_mergeable(other)
        if other.n:
            self._absorb(other.n, other.N, other._min_B, [(lv.state, lv.values()) for lv in other.levels])
        return self

    def _absorb(self, n: int, N: int, min_B: int, levels: List[Tuple[int, np.ndarray]]) -> None:
        """Algorithm 4 for an operand of ``n`` items, bound ``N``,
        smallest buffer size ``min_B`` and ``levels`` = (schedule state,
        items) per level.

        Lines 2-5: grow until N covers the operand's N and the combined
        input (the paper swaps operands so that the larger epoch is the
        target's; we grow the target).  Lines 6-7: an operand whose N lags
        behind is special-compacted with its OWN buffer size, on new
        levels over its arrays, after the growth has drawn its coins.
        Lines 8-17: count its items, take its ``min_B``, OR each level's
        state into this sketch's and append its items, then one bottom-up
        pass.

        ``merge`` calls it once per operand.  ``serde.merge_column`` calls
        it for one-level operands in state 0 whose N is at most this
        sketch's, which no special compaction touches: one at a time
        where an operand grows the sketch, and otherwise once for a run,
        with the run's level-0 items concatenated and its smallest
        ``min_B``.  The passes of a run's operands before its last one
        find level 0 below B and compact nothing, so a run gives the
        bytes that merging its operands one by one gives."""
        self._view = None
        self._grow_to(max(N, self.n + n))
        if N < self.N and len(levels) > 1:
            lagging = [RelativeCompactor(state, items) for state, items in levels]
            self._special_compact(lagging, P.geometry(self.k, N))
            levels = [(lv.state, lv.values()) for lv in lagging]
        self.n += n
        self._min_B = min(self._min_B, min_B)
        while len(self.levels) < len(levels):
            self.levels.append(RelativeCompactor())
        for dst, (state, vals) in zip(self.levels, levels):
            dst.state = merge_states(dst.state, state)
            dst.append(vals)
        self._compact_cascade(top=len(levels) - 1)

    def copy(self) -> "ReqSketch":
        """Independent copy.  It gets the generator's state, not the
        generator: it draws the coins this sketch would draw, and drawing
        from one does not advance the other.  It shares the level arrays,
        which no code writes into in place."""
        return self._from_state(*self._state())

    # ------------------------------------------------------------------- state

    def _state(self) -> tuple:
        """The whole state: ``(schedule, k, N, n, min_B, generator source,
        [(schedule state, items) per level])``.  The source is the
        generator's PCG64 fields once it is built.  ``copy`` and
        ``serde`` read a sketch only through this, and ``_from_state``
        rebuilds it."""
        return (
            self.schedule, self.k, self.N, self.n, self._min_B,
            self._rng_src if self._rng is None else self._rng_state(),
            [(lv.state, lv.values()) for lv in self.levels],
        )

    @classmethod
    def _from_state(
        cls, schedule: str, k: int, N: int, n: int, min_B: int, rng_src,
        levels: List[Tuple[int, np.ndarray]],
    ) -> "ReqSketch":
        """The sketch of a ``_state()``, which it takes as valid (the
        decoder checks a blob's first).  Its levels share the item arrays,
        and its generator is built from ``rng_src`` at its first draw."""
        sk = cls.__new__(cls)
        sk.schedule, sk.k, sk.N = schedule, k, N
        sk.B = P.geometry(k, N)
        sk.n, sk._min_B, sk._rng_src = n, min_B, rng_src
        sk.levels = [RelativeCompactor(state, items) for state, items in levels]
        return sk

    @property
    def rng(self) -> np.random.Generator:
        """The coin-flip generator, built from its source at the first read."""
        if self._rng is None:
            src = self._rng_src
            if isinstance(src, tuple):
                state, inc, has_uint32, uinteger = src
                self._rng = np.random.default_rng()
                self._rng.bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": has_uint32,
                    "uinteger": uinteger,
                }
            else:
                self._rng = np.random.default_rng(src)
        return self._rng

    @rng.setter
    def rng(self, gen: np.random.Generator) -> None:
        self._rng = gen

    def _rng_state(self) -> Pcg64Fields:
        """The generator's PCG64 fields: the decoded ones while no
        generator has been built."""
        if self._rng is None and isinstance(self._rng_src, tuple):
            return self._rng_src
        st = self.rng.bit_generator.state
        if st["bit_generator"] != "PCG64":
            raise ValueError(f"only a PCG64 generator can be saved, not {st['bit_generator']}")
        return st["state"]["state"], st["state"]["inc"], st["has_uint32"], st["uinteger"]

    # --------------------------------------------------------------- internals

    def _check_mergeable(self, other: "ReqSketch") -> None:
        if not isinstance(other, ReqSketch):
            raise TypeError(f"cannot merge ReqSketch with {type(other).__name__}")
        if self.schedule != other.schedule:
            raise ValueError("cannot merge sketches with different schedules")
        if self.k != other.k:
            raise ValueError(f"section size mismatch: {self.k} != {other.k}")

    def _compact_cascade(self, top: int) -> None:
        """Bottom-up pass: compact every at-capacity level once.

        ``top`` is the highest level that received items from outside the
        pass: 0 for ``update``, the source's top level for ``merge``, the
        top level for growth, which changes B and special-compacts into
        every level at once.  Every pass leaves each level below B, so a
        sketch at rest, and the blob it encodes, holds no full level.
        Above ``top`` a level can then be full only if the level under it
        was just compacted, and the pass stops at the first level at or
        above ``top`` that is not full.
        """
        h = 0
        while h < len(self.levels):
            lv = self.levels[h]
            if len(lv) >= self.B:
                promoted = lv.compact(self.rng, self._scheduled_start(lv.state))
                if h + 1 == len(self.levels):
                    self.levels.append(RelativeCompactor())
                self.levels[h + 1].append(promoted)
            elif h >= top:
                return
            h += 1

    def _scheduled_start(self, state: int) -> int:
        """The slot a full level with schedule state ``state`` = C starts
        its compaction at: B - L with L = (z(C)+1)*k, or L = B/2 under
        the "all" schedule."""
        B, k = self.B, self.k
        if self.schedule == "all":
            start = B // 2
        else:
            start = B - sections_to_compact(state, B // (2 * k)) * k
        # start >= B/2 always: at most B/(2k) sections of k items.
        assert start >= B // 2, (start, B)
        return start

    def _special_compact(self, levels: List[RelativeCompactor], B: int) -> None:
        """App.-C special compactions of ``levels`` under buffer size
        ``B``: shrink every non-top level to <= B/2, bottom up.  A level
        with at most B/2 + 1 items is left alone: the even range above B/2
        that it could compact is empty.  Growth runs it on this sketch's
        levels, and a merge on a lagging operand's, with the operand's B."""
        half = B // 2
        for lv, above in zip(levels, levels[1:]):
            if len(lv) > half + 1:
                above.append(lv.compact(self.rng, half))

    def _grow_once(self) -> None:
        """One parameter-epoch step: special compactions, then N <- N^2."""
        self._special_compact(self.levels, self.B)
        self.N = P.next_N(self.N)
        self.B = P.geometry(self.k, self.N)
        # The top level received promotions and new B may still be
        # exceeded in pathological cases; restore capacity.
        self._compact_cascade(top=len(self.levels) - 1)

    def _grow_to(self, bound: int) -> None:
        """Grow, one epoch at a time, until N >= ``bound``."""
        while self.N < bound:
            self._grow_once()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReqSketch(k={self.k}, n={self.n}, N={self.N}, levels={self.num_levels}, "
            f"retained={self.num_retained()}, schedule={self.schedule!r})"
        )
