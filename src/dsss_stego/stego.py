"""Covert 4-bit symbols carried as keyed 5-chip flip patterns.

A stego transmitter flips exactly 5 chips of a standard spreading code.
Five flips stay inside the guaranteed correction radius of the 16-code
set (minimum pairwise distance 12), so an ordinary receiver still
despreads the carrier symbol error-free while a keyed receiver reads the
flip positions as a covert symbol.

The 16 canonical patterns come from a deterministic greedy scan of the
C(32,5) = 201376 five-subsets in colexicographic order, keeping every
pair of accepted patterns at symmetric difference >= 6 so that a single
post-embedding chip error can never turn one valid pattern into another.
Embedding and extraction share them as one (16,) table of position masks,
whose bit p a slot's permutation sends to chip perms[k, p] and back.
This module owns both keyed streams that sender and receiver share: the
embedding schedule, which picks the symbols that carry covert load, and
the per-symbol Fisher-Yates shuffles of the 32 chip positions.

The keystream is made in bulk, bit-exact with stepping the registers one
bit at a time: a register is linear over GF(2), so each 2^14-bit span of
its stream is an XOR of rows of a key-independent table (``_basis``), and
its state, the next 32 bits, continues it exactly.  The walk reads the
rejection-sampled Fisher-Yates draws one stretch of stream at a time, and
the swaps run over only the rows asked for, so no whole-stream table is made.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chipmap import BLOCK_WORDS, CHIPS_PER_SYMBOL, ChipSequence, code_matrix, decode_chips, nearest

PATTERN_WEIGHT = 5          # = floor((d_min - 1) / 2) for d_min = 12: the correction radius
MIN_PATTERN_SEPARATION = 6  # symmetric-difference floor between patterns
CODEBOOK_SIZE = 16

# Maximal-length Fibonacci LFSR feedback taps (bit positions, 1-based).
# The permutation keystream XORs one register per polynomial: a single
# sparse-tap register's bit stream carries window correlations strong
# enough to bias the position shuffle (visible in chi-square uniformity
# tests); the combined stream measures clean.  The embedding schedule
# runs its own single register, on the secondary taps, so the two keyed
# streams stay apart.
PRIMARY_TAPS = (32, 22, 2, 1)
SECONDARY_TAPS = (32, 30, 26, 25)
_SPAN = 1 << 14  # stream bits made per XOR of basis rows (lfsr_bits)


class InvalidCarrierError(ValueError):
    """The carrier word is not one of the 16 standard codes."""


class CodebookError(RuntimeError):
    """Greedy pattern construction could not reach 16 patterns."""


def _colex(k: int, n: int):
    """The k-subsets of range(n) as ascending tuples, in colexicographic order."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        yield from (head + (top,) for head in _colex(k - 1, top))


@dataclass(frozen=True)
class StegoCodebook:
    """16 five-position flip patterns, indexed by covert symbol value."""

    patterns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # the patterns as 32-bit position masks
        object.__setattr__(self, "masks", tuple(sum(1 << p for p in pat) for pat in self.patterns))

    def min_pairwise_distance(self) -> int:
        return min((a ^ b).bit_count() for i, a in enumerate(self.masks) for b in self.masks[:i])


@functools.lru_cache(maxsize=1)
def build_codebook() -> StegoCodebook:
    """Greedy colex scan accepting subsets that keep pairwise separation >= 6.

    Deterministic: the same 16 patterns come out on every run, and the
    first accepted pattern is always {0,1,2,3,4}.
    """
    accepted: list[frozenset[int]] = []
    # separation >= 6 between weight-5 sets is intersection <= 2
    max_overlap = PATTERN_WEIGHT - MIN_PATTERN_SEPARATION // 2
    for cand in map(frozenset, _colex(PATTERN_WEIGHT, CHIPS_PER_SYMBOL)):
        if all(len(cand & prev) <= max_overlap for prev in accepted):
            accepted.append(cand)
            if len(accepted) == CODEBOOK_SIZE:
                break
    if len(accepted) < CODEBOOK_SIZE:
        raise CodebookError(
            f"only {len(accepted)} patterns at separation {MIN_PATTERN_SEPARATION}"
        )
    return StegoCodebook(tuple(tuple(sorted(p)) for p in accepted))


@dataclass(frozen=True)
class StegoKey:
    """Shared 16-bit scrambling key, written as 4 hex digits (e.g. "ACE1")."""

    seed: int

    def __post_init__(self):
        if not 1 <= self.seed <= 0xFFFF:
            raise ValueError(f"key must be a nonzero 16-bit value, got {self.seed}")

    @classmethod
    def from_hex(cls, text: str) -> "StegoKey":
        if not re.fullmatch("[0-9A-Fa-f]{4}", text):
            raise ValueError(f"key must be 4 hex digits, got {text!r}")
        return cls(int(text, 16))

    @property
    def hex(self) -> str:
        return f"{self.seed:04X}"


def key_registers(key: StegoKey) -> tuple[int, int]:
    """Seed states of the two permutation-stream registers; the first also seeds the schedule."""
    # injective 16 -> 32 bit expansion; for a nonzero key neither zero nor all-ones
    seed_a = (key.seed << 16) | (key.seed ^ 0xFFFF)
    return seed_a, (~seed_a) & 0xFFFFFFFF


@functools.lru_cache(maxsize=2)  # one table per tap set in use
def _basis(taps: tuple[int, ...]) -> tuple[int, ...]:
    """Row k: the first 32 + _SPAN output bits of the register seeded with 1 << k.

    Row 31 is stepped out L = 2^k bits at a time: as f(z)^(2^k) = f(z^(2^k))
    over GF(2), x[n + 32L] = XOR of x[n + mL].  Seed 1 << k outputs a 0 and
    steps to 1 << (k - 1), XOR 1 << 31 if k is a lag m, so row k - 1 is
    row k >> 1, XOR row 31 if k is a lag.
    """
    lags = [32 - t for t in taps]
    x, n, stride = 1 << 31, 32, 1
    while n < 32 + _SPAN + 31:  # each row down loses its top bit
        stride *= 2 if n >= 64 * stride else 1
        window, new = x >> (n - 32 * stride), 0
        for m in lags:
            new ^= window >> (m * stride)
        x |= (new & ((1 << stride) - 1)) << n
        n += stride
    rows = [x]
    for k in range(31, 0, -1):
        rows.append((rows[-1] >> 1) ^ (x if k in lags else 0))
    return tuple(row & ((1 << (32 + _SPAN)) - 1) for row in reversed(rows))


def lfsr_bits(seed: int, taps: tuple[int, ...], count: int) -> np.ndarray:
    """First `count` output bits (uint8 0/1) of a register seeded with `seed`.

    The 32-bit register shifts right, outputs its low bit and feeds back the
    parity of the tapped bits, so the stream x starts with the seed bits,
    LSB first, and x[n + 32] = XOR of x[n + m] for m = 32 - t over the taps.
    Its state at stream position p is x[p:p + 32].  The register is linear
    over GF(2), so the XOR of the `_basis` rows of a state's set bits is the
    next _SPAN bits and, after them, the state the next span starts from.
    """
    if not 0 < seed < 1 << 32:
        raise ValueError(f"LFSR seed must be a nonzero 32-bit value, got {seed}")
    rows, spans, state = _basis(tuple(taps)), [], seed
    for _ in range(-(-count // _SPAN)):
        acc = functools.reduce(operator.xor, [row for k, row in enumerate(rows) if state >> k & 1])
        spans.append(acc.to_bytes(4 + _SPAN // 8, "little")[: _SPAN // 8])
        state = acc >> _SPAN
    return np.unpackbits(np.frombuffer(b"".join(spans), np.uint8), count=count, bitorder="little")


def _state_at(bits: np.ndarray, pos: int) -> int:
    """The register state at stream position `pos`: the next 32 bits, LSB first."""
    return int.from_bytes(np.packbits(bits[pos : pos + 32], bitorder="little").tobytes(), "little")


# (window bound, draw width) of each Fisher-Yates swap i = 31..1: a w-bit draw
# is the top w bits of a 5-bit stream window, rejected above i (no modulo bias)
_DRAWS = tuple((((i + 1) << (5 - i.bit_length())) - 1, i.bit_length()) for i in range(31, 0, -1))
_MEAN_BITS = 172  # keystream bits one permutation uses on average (171.8)


def _walk(windows: bytes, count: int) -> tuple[int, int, bytearray]:
    """How many of up to `count` permutations fit, the stream position after them and
    their accepted windows, 31 each.  windows[p] holds bits p..p+4, MSB first."""
    accepted = bytearray()
    append, pos, start = accepted.append, 0, 0
    try:
        for done in range(count):
            start = pos
            for bound, width in _DRAWS:
                j = windows[pos]
                pos += width
                while j > bound:
                    j = windows[pos]
                    pos += width
                append(j)
    except IndexError:  # past the windows: drop the partial permutation
        del accepted[len(_DRAWS) * done :]
        return done, start, accepted
    return count, pos, accepted


def _shuffle(accepted: np.ndarray) -> np.ndarray:
    """Fisher-Yates swaps of all rows at once: column c swaps 31 - c with its draw.
    They run on the (32, n) transpose, where each swap reads a contiguous row."""
    n = len(accepted)
    perms = np.repeat(np.arange(CHIPS_PER_SYMBOL, dtype=np.uint8), n).reshape(CHIPS_PER_SYMBOL, n)
    draws = accepted.T >> np.array([[5 - width] for _, width in _DRAWS], dtype=np.uint8)
    flat, cols, stride = perms.reshape(-1), np.arange(n), np.intp(n)  # intp: no uint8 wrap
    for row, i in zip(draws, range(CHIPS_PER_SYMBOL - 1, 0, -1)):
        at = row * stride + cols
        picked = flat[at]
        flat[at] = perms[i]
        perms[i] = picked
    return np.ascontiguousarray(perms.T)


def permutation_stream(state_a: int, state_b: int, rows: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The permutations at ascending stream offsets `rows` and the register states after the last.

    The keystream is the primary register's stream XOR the secondary's.
    Row k of the (len(rows), 32) uint8 result maps codebook position p to
    chip row[p].  The stream is made and walked a stretch of up to
    BLOCK_WORDS permutations at a time, each continued from the states after
    the last whole permutation of the one before; one that falls short
    doubles the slack of the next.  A stretch shuffles only its rows asked for.
    """
    out = np.empty((len(rows), CHIPS_PER_SYMBOL), dtype=np.uint8)
    done, kept, slack = 0, 0, 512
    count = int(rows[-1]) + 1 if len(rows) else 0
    while done < count:
        todo = min(count - done, BLOCK_WORDS)
        size = todo * (_MEAN_BITS + 8) + slack
        b = lfsr_bits(state_b, SECONDARY_TAPS, size)
        keystream = lfsr_bits(state_a, PRIMARY_TAPS, size) ^ b
        m = size - 36  # a walk ends by m + 4, leaving a whole state after it
        windows = keystream[:m].copy()
        for k in range(1, 5):
            windows <<= 1
            windows |= keystream[k : m + k]
        walked, pos, accepted = _walk(windows.tobytes(), todo)
        slack *= 1 if walked == todo else 2
        table = np.frombuffer(accepted, dtype=np.uint8).reshape(walked, len(_DRAWS))
        end = int(np.searchsorted(rows, done + walked))
        out[kept:end] = _shuffle(table[rows[kept:end] - done])
        kept, done = end, done + walked
        state_b = _state_at(b, pos)
        state_a = _state_at(keystream, pos) ^ state_b
    return out, state_a, state_b


def embedding_schedule(key: StegoKey, embed_rate: float, num_symbols: int) -> np.ndarray:
    """Keyed boolean mask: which stream symbols carry covert load.

    Symbol i is scheduled iff bits 16i..16i+15 of the secondary-tap register
    seeded with key_registers(key)[0], read MSB first and scaled to [0, 1),
    fall below embed_rate.  Encoder and decoder derive identical masks from the
    shared key; the long-run scheduled fraction converges to embed_rate.
    """
    if not 0.0 <= embed_rate <= 1.0:
        raise ValueError(f"embed_rate must be in [0, 1], got {embed_rate}")
    if num_symbols < 0:
        raise ValueError(f"num_symbols must be >= 0, got {num_symbols}")
    if embed_rate in (0.0, 1.0):
        return np.full(num_symbols, embed_rate == 1.0)
    bits = lfsr_bits(key_registers(key)[0], SECONDARY_TAPS, 16 * num_symbols)
    # d / 65536 < r as d < r * 65536: both are exact power-of-two scalings
    return np.packbits(bits).view(">u2") < embed_rate * 65536.0


def slot_permutations(key: StegoKey, slots: np.ndarray) -> np.ndarray:
    """Keyed permutations of ascending stream slots, one (32,) row each."""
    if slots.size == 0:
        return np.zeros((0, CHIPS_PER_SYMBOL), dtype=np.uint8)
    return permutation_stream(*key_registers(key), slots)[0]


class KeySchedule:
    """Cursor over the keyed permutation stream (key rotation: symbol i's
    permutation continues the keystream where permutations 0..i-1 left it).

    It keeps one block of BLOCK permutations and the register states after
    it, so its memory does not grow with the stream.  Forward access walks
    on a block at a time from those states; access before the block replays
    from symbol 0.  Do not share one instance between concurrent encoders;
    instances with the same key are equivalent.
    """

    BLOCK = 1024

    def __init__(self, key: StegoKey):
        self.key = key
        self._rewind()

    def _rewind(self) -> None:
        self._start = 0
        self._block = np.empty((0, CHIPS_PER_SYMBOL), dtype=np.uint8)
        self._states = key_registers(self.key)

    @property
    def symbol_counter(self) -> int:
        """Number of symbols whose permutations have been generated."""
        return self._start + len(self._block)

    def permutation(self, symbol_index: int) -> tuple[int, ...]:
        """Bijection on {0..31} for the given stream position."""
        if symbol_index < 0:
            raise ValueError(f"symbol_index must be >= 0, got {symbol_index}")
        if symbol_index < self._start:
            self._rewind()
        while symbol_index >= (end := self.symbol_counter):
            self._block, *states = permutation_stream(*self._states, np.arange(self.BLOCK))
            self._start, self._states = end, tuple(states)
        return tuple(self._block[symbol_index - self._start].tolist())


@functools.lru_cache(maxsize=1)
def _mask_table() -> tuple[np.ndarray, np.ndarray]:
    """The codebook as a (16,) uint32 table of masks over codebook positions, and its
    span: the positions 0 up to the highest any pattern holds, as uint32."""
    masks = np.array(build_codebook().masks, dtype=np.uint32)
    return masks, np.arange(int(masks.max()).bit_length(), dtype=np.uint32)


def embed_words(words: np.ndarray, stego_symbols: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Flip each word's chips at its covert symbol's pattern, placed through its permutation.

    Bit p of the pattern's mask flips chip perms[k, p]: the span's permutation
    columns are read on their (span, block) transpose, a block of words at a time.
    """
    masks, span = _mask_table()
    out = np.empty_like(words)
    for start in range(0, len(words), BLOCK_WORDS):
        block = slice(start, start + BLOCK_WORDS)
        bits = (masks[stego_symbols[block]] >> span[:, None]) & 1
        # a pattern's chips are distinct: OR places each bit alone
        out[block] = words[block] ^ np.bitwise_or.reduce(bits << perms[block, : len(span)].T)
    return out


def extract_diffs(
    diffs: np.ndarray, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covert symbols, exact flags and weights of diff words (received XOR nearest code).

    Bit p of a diff read back through its permutation is chip perms[k, p], for p
    in the span.  The symbol is the mask at the least symmetric difference from
    it (ties to the lowest symbol; chips outside the span add the same to every
    mask), by ``chipmap.nearest`` a block of words at a time.  A slot is exact
    iff its read word is a mask and its diff has no other chip: weight 5.
    """
    masks, span = _mask_table()
    symbols = np.empty(len(diffs), dtype=np.uint8)
    exact = np.empty(len(diffs), dtype=bool)
    weight = np.bitwise_count(diffs)
    for start in range(0, len(diffs), BLOCK_WORDS):
        block = slice(start, start + BLOCK_WORDS)
        bits = (diffs[block] >> perms[block, : len(span)].T) & 1  # (span, block)
        keys = nearest((1 << span) @ bits, masks)
        symbols[block] = keys & 0xF
        exact[block] = (keys < 16) & (weight[block] == PATTERN_WEIGHT)
    return symbols, exact, weight


def _as_batch(permutation: tuple[int, ...]) -> np.ndarray:
    if sorted(permutation) != list(range(CHIPS_PER_SYMBOL)):
        raise ValueError(f"not a permutation of range(32): {permutation}")
    return np.array([permutation], dtype=np.uint8)


class ExtractResult(NamedTuple):
    symbol: int
    exact: bool
    weight: int  # size of the observed diff set; 5 when cleanly embedded


def embed_with_permutation(
    carrier: ChipSequence,
    stego_symbol: int,
    permutation: tuple[int, ...],
) -> ChipSequence:
    """Flip the carrier chips at the permuted pattern positions."""
    if not 0 <= stego_symbol < CODEBOOK_SIZE:
        raise ValueError(f"stego symbol out of range: {stego_symbol}")
    word = embed_words(
        np.array([carrier.word], np.uint32), np.array([stego_symbol]), _as_batch(permutation)
    )
    return ChipSequence(int(word[0]))


def embed(
    carrier: ChipSequence,
    stego_symbol: int,
    schedule: KeySchedule,
    symbol_index: int,
) -> ChipSequence:
    """Embed a covert symbol into a standard spreading code.

    The output differs from the carrier in exactly 5 chips and still
    despreads to the carrier's data symbol (residual distance 5, all
    other codes at distance >= 7).
    """
    if decode_chips(carrier).distance != 0:
        raise InvalidCarrierError(
            f"carrier {carrier.to_string()} is not a standard spreading code"
        )
    return embed_with_permutation(carrier, stego_symbol, schedule.permutation(symbol_index))


def extract_with_permutation(
    received: ChipSequence,
    permutation: tuple[int, ...],
) -> ExtractResult:
    """Read the covert symbol back from the received word's diff set.

    Despreads to the nearest standard code, reads the differing chips back
    through the permutation and takes the codebook pattern at the least
    symmetric difference from them (ties to the lowest symbol).  Only the
    pattern itself, with no other chip, is exact; any other diff is a fallback
    with exact=False, so the covert channel degrades instead of erasing.
    """
    diff = received.word ^ int(code_matrix()[decode_chips(received).symbol])
    symbol, exact, weight = extract_diffs(np.array([diff], np.uint32), _as_batch(permutation))
    return ExtractResult(int(symbol[0]), bool(exact[0]), int(weight[0]))


def extract(
    received: ChipSequence,
    schedule: KeySchedule,
    symbol_index: int,
) -> ExtractResult:
    return extract_with_permutation(received, schedule.permutation(symbol_index))
