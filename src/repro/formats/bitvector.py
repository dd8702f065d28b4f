"""Bitvector level format (paper section 4.3).

Coordinates are encoded as machine words of ``bits_per_word`` bits with a
1 wherever an explicit coordinate exists.  Iteration is pseudo-dense —
every word in the fiber's span is visited, zero or not — but an n-bit
word is processed in a single cycle, which is the whole point.

Child references follow the paper's popcount protocol: the reference
attached to a word is the cumulative popcount of all preceding words, so
downstream levels index memory by summed bitcounts (the ``D, S0, 3, 2, 0``
reference stream of the section 4.3 example).

Storage is a single flat ``uint64`` word array plus a fiber-boundary
segment array (mirroring :class:`~repro.formats.compressed.CompressedLevel`),
with popcount prefixes precomputed in one vectorized pass; the word
tokens handed to scanners are plain Python ints.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .level import Level


def popcount(word: int) -> int:
    """Number of set bits in *word*."""
    return bin(word).count("1")


def _popcount_array(words: np.ndarray) -> np.ndarray:
    """Vectorized per-word popcount (int64 result)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.int64)
    return np.array([popcount(int(w)) for w in words], dtype=np.int64)


def _check_word_width(bits_per_word: int) -> None:
    """Words live in uint64 storage; wider widths would silently drop
    high bits (numpy shifts >= 64 wrap to zero), narrower-than-1 is
    meaningless.  Each construction path checks before building words."""
    if not 1 <= bits_per_word <= 64:
        raise ValueError(
            f"bits_per_word must be in [1, 64], got {bits_per_word}"
        )


def _num_words(size: int, bits_per_word: int) -> int:
    """Words per fiber spanning ``0..size-1`` (shared by every build path,
    so the vectorized and reference constructors cannot diverge)."""
    return max(1, -(-size // bits_per_word)) if size else 0


def coords_to_words(coords: Sequence[int], size: int, bits_per_word: int) -> List[int]:
    """Pack sorted coordinates of a fiber spanning ``0..size-1`` into words."""
    num_words = _num_words(size, bits_per_word)
    words = [0] * num_words
    for crd in coords:
        if not 0 <= crd < size:
            raise ValueError(f"coordinate {crd} outside dimension of size {size}")
        words[crd // bits_per_word] |= 1 << (crd % bits_per_word)
    return words


def word_coords(word: int, word_index: int, bits_per_word: int) -> List[int]:
    """Expand one word back into its absolute coordinates."""
    base = word_index * bits_per_word
    return [base + bit for bit in range(bits_per_word) if word >> bit & 1]


class BitvectorLevel(Level):
    """A level whose fibers are stored as packed bitvector words."""

    format_name = "bitvector"

    def __init__(self, fibers_words: Sequence[Sequence[int]], size: int, bits_per_word: int):
        _check_word_width(bits_per_word)
        flat: List[int] = []
        word_seg = [0]
        for words in fibers_words:
            flat.extend(int(w) for w in words)
            word_seg.append(len(flat))
        self._init_flat(
            np.asarray(flat, dtype=np.uint64),
            np.asarray(word_seg, dtype=np.int64),
            size,
            bits_per_word,
        )

    def _init_flat(
        self, words: np.ndarray, word_seg: np.ndarray, size: int, bits_per_word: int
    ) -> None:
        self.bits_per_word = bits_per_word
        self.size = size
        self._words: np.ndarray = np.ascontiguousarray(words, dtype=np.uint64)
        self._word_seg: np.ndarray = np.ascontiguousarray(word_seg, dtype=np.int64)
        # Global popcount prefix, so child references are contiguous across
        # fibers exactly like compressed-level positions.
        self._cum_pop: np.ndarray = np.concatenate(
            ([0], _popcount_array(self._words).cumsum())
        ).astype(np.int64)
        self._total = int(self._cum_pop[-1])

    @classmethod
    def from_fibers(
        cls, fibers: Sequence[Sequence[int]], size: int, bits_per_word: int = 64
    ) -> "BitvectorLevel":
        """Build from per-fiber coordinate lists (like CompressedLevel)."""
        return cls(
            [coords_to_words(coords, size, bits_per_word) for coords in fibers],
            size,
            bits_per_word,
        )

    @classmethod
    def from_arrays(
        cls,
        fiber_of_coord: np.ndarray,
        coords: np.ndarray,
        num_fibers: int,
        size: int,
        bits_per_word: int = 64,
    ) -> "BitvectorLevel":
        """Vectorized build from parallel (fiber index, coordinate) arrays.

        Every fiber spans the full ``0..size-1`` range, so all fibers get
        the same word count; coordinates must already be range-validated.
        """
        _check_word_width(bits_per_word)
        num_words = _num_words(size, bits_per_word)
        flat = np.zeros(num_fibers * num_words, dtype=np.uint64)
        if coords.size:
            coords = coords.astype(np.uint64)
            slots = fiber_of_coord * num_words + (
                coords // np.uint64(bits_per_word)
            ).astype(np.int64)
            bits = np.left_shift(np.uint64(1), coords % np.uint64(bits_per_word))
            np.bitwise_or.at(flat, slots, bits)
        word_seg = np.arange(num_fibers + 1, dtype=np.int64) * num_words
        level = cls.__new__(cls)
        level._init_flat(flat, word_seg, size, bits_per_word)
        return level

    # -- bitvector-specific interface ----------------------------------------
    @property
    def fibers_words(self) -> List[List[int]]:
        """Per-fiber word lists (compatibility view over the flat storage)."""
        return [
            self._words[self._word_seg[i]:self._word_seg[i + 1]].tolist()
            for i in range(self.num_fibers())
        ]

    def words(self, ref: int) -> List[Tuple[int, int, int]]:
        """``(word_index, word, child_base_ref)`` for every word in fiber *ref*.

        ``child_base_ref`` is the reference of the word's first set bit;
        downstream consumers add per-bit popcount offsets.
        """
        start, stop = int(self._word_seg[ref]), int(self._word_seg[ref + 1])
        ws = self._words[start:stop].tolist()
        bases = self._cum_pop[start:stop].tolist()
        return list(zip(range(stop - start), ws, bases))

    # -- Level interface -----------------------------------------------------
    def num_fibers(self) -> int:
        return self._word_seg.size - 1

    def fiber(self, ref: int) -> List[Tuple[int, int]]:
        pairs = []
        for idx, word, base in self.words(ref):
            for offset, crd in enumerate(word_coords(word, idx, self.bits_per_word)):
                pairs.append((crd, base + offset))
        return pairs

    def total_coordinates(self) -> int:
        return self._total

    def memory_footprint(self) -> int:
        return int(self._words.size)

    def __repr__(self) -> str:
        return (
            f"BitvectorLevel(fibers={self.num_fibers()}, size={self.size}, "
            f"b={self.bits_per_word})"
        )
