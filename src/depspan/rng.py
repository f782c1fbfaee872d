"""Deterministic, portable random streams.

Every random choice in this package is drawn from a RandomStream, which wraps
numpy's PCG64 bit generator seeded through SeedSequence. The derivation rule
is fixed forever:

    derive_stream(master, index)  ==  PCG64(SeedSequence(master, spawn_key=(index,)))

PCG64 produces an identical bit sequence for a given seeding on every platform
numpy supports, and SeedSequence guarantees that distinct spawn keys yield
statistically independent streams. Standard-library ``random`` is deliberately
not used anywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream", "derive_stream", "derive_seed"]

_UINT64_MASK = (1 << 64) - 1


class RandomStream:
    """A single independent stream of randomness, identified by (seed, index).

    Streams are single-owner: a stream passed to a sampling function is
    advanced by it.
    """

    __slots__ = ("seed", "index", "_gen")

    def __init__(self, seed: int, index: int = 0):
        if index < 0:
            raise ValueError(f"stream index must be >= 0, got {index}")
        self.seed = int(seed) & _UINT64_MASK
        self.index = int(index)
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.index,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniforms(self, count: int) -> np.ndarray:
        """Next `count` float64 values, uniform on [0, 1)."""
        return self._gen.random(count)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct values from range(n)."""
        return self._gen.choice(n, size=k, replace=False)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, index={self.index})"


def derive_stream(master: int, index: int) -> RandomStream:
    """Stream number `index` of the family keyed by `master`.

    Equal (master, index) gives a bit-identical stream on any platform;
    distinct indices give independent streams.
    """
    return RandomStream(master, index)


def derive_seed(master: int, index: int) -> int:
    """A 64-bit sub-seed, for handing a whole seed (not a stream) to a component.

    Defined as the first state word of SeedSequence(master, spawn_key=(index,)),
    so it is as stable as derive_stream itself.
    """
    ss = np.random.SeedSequence(int(master) & _UINT64_MASK, spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])
