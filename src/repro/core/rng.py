"""A sketch's coin-flip generator, built the first time it is read.

Building a ``numpy.random.Generator`` costs tens of microseconds, about
as much as decoding a small sketch.  A decoded sketch that is only
merged into another one never flips a coin of its own, and a Spark group
sketch that never compacts never does either, so sketches keep the
*source* of their generator -- an int seed, a ``SeedSequence`` or the
four PCG64 fields a blob carries -- and build the generator on first
use.  The stream is the same as that of an eagerly built generator.
"""
from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

# PCG64 ``(state, inc, has_uint32, uinteger)``.
Pcg64Fields = Tuple[int, int, int, int]


class LazyRng:
    """Mixin giving a sketch an ``rng`` attribute built on first read.

    Set ``_rng_src`` (and leave ``_rng`` None) to defer the build;
    assigning ``rng`` installs a ready generator.
    """

    _rng: Optional[np.random.Generator] = None
    _rng_src: Union[int, np.random.SeedSequence, Pcg64Fields] = 0

    @property
    def rng(self) -> np.random.Generator:
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
