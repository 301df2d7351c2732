"""IEEE 802.15.4 symbol-to-chip mapping and minimum-distance despreading.

The 2450 MHz PHY maps each 4-bit data symbol onto one of 16 predefined
32-chip pseudo-noise sequences.  This module holds that table plus the
Hamming arithmetic and nearest-code decoding a receiver uses to undo it.

It also owns the one chip layout of the package: a symbol's 32 chips are
one uint32 word with chip i at bit i, and a stream is an (N,) uint32 array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

CHIPS_PER_SYMBOL = 32
BITS_PER_SYMBOL = 4
SYMBOL_VALUES = 1 << BITS_PER_SYMBOL
# Words per block of every per-word table (channel draw, despread, embed and
# extract), so working memory stays flat however long the stream is.
BLOCK_WORDS = 1 << 12
# byte value -> the byte with its bits reversed: a word's bytes so mapped hold chip 0 in
# the first byte's MSB (chip files), and stream bytes so mapped read MSB first (stego)
REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

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


@dataclass(frozen=True, slots=True, repr=False)
class ChipSequence:
    """Immutable 32-chip word; chip index 0 is transmitted first.

    A 32-bit integer with chip i stored at bit i, the layout of every chip
    word in the package (streams are (N,) uint32 arrays of such words), so
    Hamming distances reduce to a popcount.  Textual form is a 32-character
    '0'/'1' string with chip 0 leftmost.
    """

    word: int

    def __post_init__(self):
        if not 0 <= self.word < (1 << CHIPS_PER_SYMBOL):
            raise ValueError(f"chip word out of range: {self.word}")

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
_CANDIDATE_INDEX = np.arange(SYMBOL_VALUES, dtype=np.uint16)[:, None]  # the low 4 bits of a key
# Codes are at least d_min chips apart, so a word within this many chips of a code has that
# code as its only nearest, with no tie: bounded-distance decoding.
CORRECTION_RADIUS = (code_set_stats().d_min - 1) // 2
GUESS_WORDS = 4 * BLOCK_WORDS  # words a chunk of despreading; the last may be shorter
_KEY_SHIFT = CHIPS_PER_SYMBOL - 16  # a word's top 16 chips key its guess


@functools.cache
def _guesses() -> np.ndarray:
    """(65536,) uint8: each top-16-chip key's nearest code, the low nibbles of its keys."""
    return nearest_table(_CODE_WORDS >> _KEY_SHIFT, 16).astype(np.uint8) & np.uint8(0xF)


def code_matrix() -> np.ndarray:
    """The 16 standard codes as a read-only (16,) uint32 word array, indexed by symbol."""
    return _CODE_WORDS


def pack_chips(rows: np.ndarray) -> np.ndarray:
    """0/1 chips along the last axis (32 per word) -> uint32 words, chip i at bit i;
    a word's chips are 4 contiguous bytes of one flat pack, so no row packs alone."""
    if (rows := np.asarray(rows, dtype=bool)).shape[-1:] != (CHIPS_PER_SYMBOL,):
        raise ValueError(f"need 32 chips along the last axis, got shape {rows.shape}")
    packed = np.packbits(rows, axis=None, bitorder="little")
    return packed.view("<u4").reshape(rows.shape[:-1]).astype(np.uint32, copy=False)


def nearest(words: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``distance << 4 | index`` of each word's nearest of the 16 words of a (16,) table.

    One minimum over the (16, n) keys decides every word: ``key & 0xF`` is the
    nearest index with ties to the lowest, and ``key < 16`` marks distance 0.
    """
    keys = np.bitwise_count(words ^ table[:, None]).astype(np.uint16) << 4  # distance <= 32
    keys |= _CANDIDATE_INDEX
    return np.minimum.reduce(keys, axis=0)


def nearest_table(table: np.ndarray, bits: int) -> np.ndarray:
    """(2**bits,) uint16: ``nearest``'s key of every bits-bit word, 1024 words a call."""
    keys = np.empty(1 << bits, dtype=np.uint16)
    for start in range(0, keys.size, 1024):
        words = np.arange(start, min(start + 1024, keys.size), dtype=np.uint32)
        keys[start : start + words.size] = nearest(words, table)
    return keys


def _as_words(words) -> np.ndarray:
    """The words as uint32, checked before they are narrowed: integers in [0, 2**32)."""
    if (words := np.asarray(words)).dtype == np.uint32:  # no pass over them, no copy
        return words
    if words.dtype.kind not in "iu" or words.size and (words.min() < 0 or words.max() >= 1 << 32):
        raise ValueError(f"words must be integers in [0, 2**32), got {words.dtype} {words!r:.80}")
    return words.astype(np.uint32)


def despread_stream(words: np.ndarray) -> np.ndarray:
    """Nearest-code symbol per word, ties to the lowest: a chunk at a time, each word keeps the
    guess keyed by its top chips if within CORRECTION_RADIUS of it, and the rest are searched."""
    out = np.empty(len(words := _as_words(words)), dtype=np.uint8)
    for start in range(0, len(words), GUESS_WORDS):
        chunk = words[start : start + GUESS_WORDS]
        guess = out[start : start + GUESS_WORDS]  # "clip" clips no uint32 word's key, unbuffered
        _guesses().take(chunk >> _KEY_SHIFT, out=guess, mode="clip")
        far = (np.bitwise_count(chunk ^ _CODE_WORDS.take(guess)) > CORRECTION_RADIUS).nonzero()[0]
        for k in range(0, far.size, BLOCK_WORDS):
            piece = far[k : k + BLOCK_WORDS]
            guess[piece] = nearest(chunk[piece], _CODE_WORDS) & 0xF
    return out


def map_symbol(symbol: int) -> ChipSequence:
    """Spread a 4-bit data symbol onto its 32-chip code."""
    if not 0 <= symbol < SYMBOL_VALUES:
        raise ValueError(f"data symbol out of range: {symbol}")
    return standard_code_set()[symbol]


def decode_chips(received: ChipSequence) -> DecodeResult:
    """Despread by nearest code; ties go to the lowest symbol value."""
    key = int(nearest(np.array([received.word], dtype=np.uint32), _CODE_WORDS)[0])
    return DecodeResult(key & 0xF, key >> 4)
