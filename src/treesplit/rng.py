"""Seeded random streams with reproducible, independently-keyed substreams."""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

BLOCK = 4096


class RngStream:
    """Random stream keyed by ``(seed, stream)``.

    Identical keys reproduce identical draw sequences bit for bit, so trials
    indexed by substream can be scheduled in any order or across processes
    with no coordination. Built on Philox (counter-based) via SeedSequence.
    """

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int | tuple[int, ...] = ()):
        if isinstance(stream, int):
            stream = (stream,)
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"

    def substream(self, *key: int) -> "RngStream":
        """Independent stream derived by extending this stream's key."""
        return RngStream(self.seed, self.stream + key)

    def block(self, n: int = BLOCK) -> list[float]:
        """Next ``n`` uniform draws in [0, 1) as plain Python floats."""
        return self._gen.random(n).tolist()

    def uniforms(self) -> Iterator[float]:
        """Endless uniform draws in [0, 1), filled ``BLOCK`` at a time.

        The first block is fetched at once, so a use that draws nothing still
        advances the stream by one block; the unused tail of the last block is
        discarded when the iterator is dropped. Walk loops take one draw per
        decision with ``next``. A C-level chain, not a generator, keeps a draw
        cheaper than indexing a block by hand.
        """
        return chain.from_iterable(chain((self.block(),), iter(self.block, None)))

    def unit(self) -> float:
        """Single uniform draw in [0, 1)."""
        return float(self._gen.random())

    def integers(self, n: int, size: int | None = None):
        """Uniform integers in [0, n) for n < 2**63 (numpy fast path)."""
        if size is None:
            return int(self._gen.integers(n))
        return self._gen.integers(n, size=size)

    def rand_below(self, n: int) -> int:
        """Exact uniform integer in [0, n) for arbitrarily large n.

        Uses rejection on whole bit-words, so the result is exactly uniform
        even when n exceeds the 64-bit range (needed for exact 1/s coins).
        """
        if n <= 0:
            raise ValueError("rand_below requires n >= 1")
        if n.bit_length() <= 62:
            return int(self._gen.integers(n))
        bits = n.bit_length()
        words = (bits + 63) // 64
        mask = (1 << bits) - 1
        while True:
            x = 0
            for w in self._gen.integers(0, 2**63, size=2 * words, dtype=np.int64):
                x = (x << 63) | int(w)
            x &= mask
            if x < n:
                return x
