"""A sketch's coin-flip generator, built the first time it is read.

Building a ``numpy.random.Generator`` costs tens of microseconds, about
as much as decoding a small sketch.  A decoded sketch that is only
merged into another one never flips a coin of its own, so sketches keep
the *source* of their generator -- an int seed or a saved
``bit_generator.state`` dict -- and build the generator on first use.
The stream is the same as that of an eagerly built generator.
"""
from __future__ import annotations

import sys
from typing import Optional, Union

import numpy as np


class LazyRng:
    """Mixin giving a sketch an ``rng`` attribute built on first read.

    Set ``_rng_src`` (and leave ``_rng`` None) to defer the build;
    assigning ``rng`` installs a ready generator.
    """

    _rng: Optional[np.random.Generator] = None
    _rng_src: Union[int, dict] = 0

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            src = self._rng_src
            if isinstance(src, dict):
                self._rng = np.random.default_rng()
                self._rng.bit_generator.state = src
            else:
                self._rng = np.random.default_rng(src)
        return self._rng

    @rng.setter
    def rng(self, gen: np.random.Generator) -> None:
        self._rng = gen

    def _rng_state(self) -> dict:
        """The generator's state for ``to_dict``: the decoded state while
        no generator has been built."""
        if self._rng is None and isinstance(self._rng_src, dict):
            return _interned(self._rng_src)
        return self.rng.bit_generator.state


def _interned(d: dict) -> dict:
    """``d`` with interned keys, as ``bit_generator.state`` builds it.

    Pickle writes a string once and then refers back to it only when it
    is the same object; a decoded dict's keys are fresh strings, so
    without this the re-encoded bytes would differ from the original.
    """
    return {sys.intern(k): _interned(v) if isinstance(v, dict) else v for k, v in d.items()}
