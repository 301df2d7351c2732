"""IEEE 802.15.4 symbol-to-chip mapping and minimum-distance despreading.

The 2450 MHz PHY maps each 4-bit data symbol onto one of 16 predefined
32-chip pseudo-noise sequences.  This module holds that table plus the
Hamming arithmetic and nearest-code decoding a receiver uses to undo it.

It also owns the one chip layout of the package: a symbol's 32 chips are
one uint32 word with chip i at bit i, and a stream is an (N,) uint32 array.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

CHIPS_PER_SYMBOL = 32
BITS_PER_SYMBOL = 4
SYMBOL_VALUES = 1 << BITS_PER_SYMBOL
_DECODE_CHUNK = 1 << 16  # words despread per block: bounds the (block, 16) distance table

# IEEE 802.15.4-2006, Table 73 (2450 MHz band), chip c0 first.  The values
# are guarded by the pairwise-distance statistics test: any single-chip
# transcription error perturbs the mean distance.
CHIP_TABLE = (
    "11011001110000110101001000101110",
    "11101101100111000011010100100010",
    "00101110110110011100001101010010",
    "00100010111011011001110000110101",
    "01010010001011101101100111000011",
    "00110101001000101110110110011100",
    "11000011010100100010111011011001",
    "10011100001101010010001011101101",
    "10001100100101100000011101111011",
    "10111000110010010110000001110111",
    "01111011100011001001011000000111",
    "01110111101110001100100101100000",
    "00000111011110111000110010010110",
    "01100000011101111011100011001001",
    "10010110000001110111101110001100",
    "11001001011000000111011110111000",
)


class ChipSequence:
    """Immutable 32-chip word; chip index 0 is transmitted first.

    A 32-bit integer with chip i stored at bit i, the layout of every chip
    word in the package (streams are (N,) uint32 arrays of such words), so
    Hamming distances reduce to a popcount.  Textual form is a 32-character
    '0'/'1' string with chip 0 leftmost.
    """

    __slots__ = ("word",)

    def __init__(self, word: int):
        if not 0 <= word < (1 << CHIPS_PER_SYMBOL):
            raise ValueError(f"chip word out of range: {word}")
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value):
        raise AttributeError("ChipSequence is immutable")

    @classmethod
    def from_string(cls, text: str) -> "ChipSequence":
        if len(text) != CHIPS_PER_SYMBOL:
            raise ValueError(f"need exactly 32 chips, got {len(text)}")
        if set(text) - {"0", "1"}:
            raise ValueError(f"chip string must be binary: {text!r}")
        return cls(int(text[::-1], 2))

    @property
    def chips(self) -> tuple[int, ...]:
        return tuple(map(int, self.to_string()))

    def to_string(self) -> str:
        return f"{self.word:032b}"[::-1]

    def flip(self, positions: Iterable[int]) -> "ChipSequence":
        """Return a copy with the chips at the given positions inverted."""
        mask = 0
        for p in positions:
            if not 0 <= p < CHIPS_PER_SYMBOL:
                raise ValueError(f"chip position out of range: {p}")
            mask |= 1 << p
        return ChipSequence(self.word ^ mask)

    def __eq__(self, other):
        return isinstance(other, ChipSequence) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __len__(self):
        return CHIPS_PER_SYMBOL

    def __repr__(self):
        return f"ChipSequence({self.to_string()!r})"


def hamming(a: ChipSequence, b: ChipSequence) -> int:
    """Number of chip positions where the two words differ."""
    return (a.word ^ b.word).bit_count()


class CodeSetStats(NamedTuple):
    d_min: int
    d_mean: float
    d_max: int


class DecodeResult(NamedTuple):
    symbol: int
    distance: int


@functools.lru_cache(maxsize=1)
def standard_code_set() -> tuple[ChipSequence, ...]:
    """The standard 2450 MHz PHY symbol-to-chip table, indexed by data symbol."""
    return tuple(ChipSequence.from_string(s) for s in CHIP_TABLE)


def code_set_stats() -> CodeSetStats:
    """Min/mean/max Hamming distance over the 120 unordered code pairs."""
    dists = [hamming(a, b) for a, b in combinations(standard_code_set(), 2)]
    return CodeSetStats(min(dists), sum(dists) / len(dists), max(dists))


_CODE_WORDS = np.array([c.word for c in standard_code_set()], dtype=np.uint32)
_CODE_WORDS.setflags(write=False)


def code_matrix() -> np.ndarray:
    """The 16 standard codes as a read-only (16,) uint32 word array, indexed by symbol."""
    return _CODE_WORDS


def pack_chips(rows: np.ndarray) -> np.ndarray:
    """0/1 chips along the last axis (32 per word) -> uint32 words, chip i at bit i."""
    packed = np.packbits(np.asarray(rows, dtype=bool), axis=-1, bitorder="little")
    return packed.view("<u4")[..., 0].astype(np.uint32, copy=False)


def unpack_chips(words: np.ndarray) -> np.ndarray:
    """(N,) uint32 words -> (N, 32) uint8 chips, chip 0 first (inverse of pack_chips)."""
    octets = np.ascontiguousarray(words, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(octets, axis=1, bitorder="little")


def despread_stream(words: np.ndarray) -> np.ndarray:
    """Nearest-code symbol per word (ties to the lowest symbol)."""
    out = np.empty(len(words), dtype=np.uint8)
    for start in range(0, len(words), _DECODE_CHUNK):
        distances = np.bitwise_count(words[start : start + _DECODE_CHUNK, None] ^ _CODE_WORDS)
        out[start : start + _DECODE_CHUNK] = distances.argmin(axis=1)
    return out


def map_symbol(symbol: int) -> ChipSequence:
    """Spread a 4-bit data symbol onto its 32-chip code."""
    if not 0 <= symbol < SYMBOL_VALUES:
        raise ValueError(f"data symbol out of range: {symbol}")
    return standard_code_set()[symbol]


def decode_chips(received: ChipSequence) -> DecodeResult:
    """Despread by nearest code; ties go to the lowest symbol value."""
    symbol = int(despread_stream(np.array([received.word], dtype=np.uint32))[0])
    return DecodeResult(symbol, (received.word ^ int(_CODE_WORDS[symbol])).bit_count())
