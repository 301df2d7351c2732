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
Per-symbol scrambling permutes the 32 chip positions with a Fisher-Yates
shuffle driven by a keyed LFSR bit stream.

The keystream is made in bulk, bit-exact with stepping the registers one
bit at a time: a register is linear over GF(2), so each 2^14-bit span of
its stream is an XOR of rows of a key-independent table (``_basis``), and
its state, the next 32 bits, continues it exactly.  One flat walk reads
the rejection-sampled Fisher-Yates draws; the swaps run over all symbols.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .chipmap import CHIPS_PER_SYMBOL, ChipSequence, code_matrix, decode_chips

PATTERN_WEIGHT = 5          # = floor((d_min - 1) / 2) for d_min = 12: the correction radius
MIN_PATTERN_SEPARATION = 6  # symmetric-difference floor between patterns
CODEBOOK_SIZE = 16
SUBSET_COUNT = math.comb(CHIPS_PER_SYMBOL, PATTERN_WEIGHT)  # 201376

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


def rank_subset(positions: Iterable[int]) -> int:
    """Colex rank of a 5-subset of {0..31}."""
    pos = sorted(positions)
    if len(pos) != PATTERN_WEIGHT or len(set(pos)) != PATTERN_WEIGHT:
        raise ValueError(f"need 5 distinct positions, got {pos}")
    if pos[0] < 0 or pos[-1] >= CHIPS_PER_SYMBOL:
        raise ValueError(f"positions out of range: {pos}")
    return sum(math.comb(c, j + 1) for j, c in enumerate(pos))


def unrank_subset(rank: int) -> tuple[int, ...]:
    """The rank-th 5-subset of {0..31} in colex order (inverse of rank_subset)."""
    if not 0 <= rank < SUBSET_COUNT:
        raise ValueError(f"rank out of range [0, {SUBSET_COUNT}): {rank}")
    r = rank
    n = CHIPS_PER_SYMBOL
    k = PATTERN_WEIGHT
    out = [0] * k
    while k > 0:
        # binary search for the largest n with comb(n, k) <= r
        lower = k - 1
        while lower < n:
            mid = (lower + n + 1) // 2
            if r < math.comb(mid, k):
                n = mid - 1
            else:
                lower = mid
        r -= math.comb(n, k)
        k -= 1
        out[k] = n
    return tuple(out)


@dataclass(frozen=True)
class StegoCodebook:
    """16 five-position flip patterns, indexed by covert symbol value."""

    patterns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # the patterns as 32-bit position masks and as a (16, 5) position array
        masks = tuple(sum(1 << p for p in pat) for pat in self.patterns)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "positions", np.array(self.patterns, dtype=np.intp))

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
    for rank in range(SUBSET_COUNT):
        cand = frozenset(unrank_subset(rank))
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


def _expand_key(seed: int) -> int:
    # injective 16 -> 32 bit expansion; never zero for a nonzero key
    return ((seed & 0xFFFF) << 16) | (seed ^ 0xFFFF)


def key_registers(key: StegoKey) -> tuple[int, int]:
    """Seed states of the two permutation-stream registers."""
    seed_a = _expand_key(key.seed)
    return seed_a, (~seed_a) & 0xFFFFFFFF  # nonzero: seed_a is never all-ones


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
_MEAN_BITS = 172        # keystream bits one permutation uses on average (171.8)
_CHUNK = 4096           # permutations walked per stretch of generated stream


def _walk(windows: bytes, accepted: bytearray, count: int) -> tuple[int, int]:
    """Append the accepted windows of up to `count` permutations; return how many
    fit and the stream position after them.  windows[p] holds bits p..p+4, MSB first."""
    append, base, pos, start = accepted.append, len(accepted), 0, 0
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
        del accepted[base + len(_DRAWS) * done :]
        return done, start
    return count, pos


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


def permutation_stream(state_a: int, state_b: int, count: int) -> tuple[np.ndarray, int, int]:
    """The next `count` keyed permutations and the register states after them.

    The keystream is the primary register's stream XOR the secondary's.
    Row k of the (count, 32) uint8 result maps codebook position p to chip
    row[p].  The stream is made and walked a stretch at a time, each continued
    from the states after the last whole permutation of the one before; one
    that falls short doubles the slack of the next.
    """
    accepted, done, slack = bytearray(), 0, 512
    while done < count:
        todo = min(count - done, _CHUNK)
        size = todo * (_MEAN_BITS + 8) + slack
        b = lfsr_bits(state_b, SECONDARY_TAPS, size)
        keystream = lfsr_bits(state_a, PRIMARY_TAPS, size) ^ b
        m = size - 36  # a walk ends by m + 4, leaving a whole state after it
        windows = keystream[:m].copy()
        for k in range(1, 5):
            windows <<= 1
            windows |= keystream[k : m + k]
        walked, pos = _walk(windows.tobytes(), accepted, todo)
        slack *= 1 if walked == todo else 2
        done += walked
        state_b = _state_at(b, pos)
        state_a = _state_at(keystream, pos) ^ state_b
    perms = _shuffle(np.frombuffer(accepted, dtype=np.uint8).reshape(count, len(_DRAWS)))
    return perms, state_a, state_b


class KeySchedule:
    """Cursor over the keyed permutation stream (key rotation: symbol i's
    permutation continues the keystream where permutations 0..i-1 left it).

    It keeps only the last BLOCK permutations and the register states after
    them, so its memory does not grow with the stream.  Forward access
    generates up to the index in steps doubling up to BLOCK; access before
    the block replays from symbol 0.  Do not share one instance between
    concurrent encoders; instances with the same key are equivalent.
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
    def lfsr_state(self) -> int:
        """Both register states after the generated symbols, packed; never zero."""
        return (self._states[0] << 32) | self._states[1]

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
            step = min(self.BLOCK, max(symbol_index + 1 - end, end, 64))
            perms, *states = permutation_stream(*self._states, step)
            self._block = np.concatenate((self._block, perms))[-self.BLOCK :]
            self._start, self._states = end + step - len(self._block), tuple(states)
        return tuple(self._block[symbol_index - self._start].tolist())


def pattern_masks(perms: np.ndarray) -> np.ndarray:
    """(n, 16) uint32 chip words: the 16 codebook patterns placed through each permutation.

    Row k of perms maps codebook position p to chip perms[k, p].
    """
    chip_bits = np.uint32(1) << perms.astype(np.uint32)
    columns = build_codebook().positions.T  # a pattern's 5 chips are distinct: OR adds them
    return functools.reduce(operator.ior, (chip_bits.take(column, axis=1) for column in columns))


def embed_words(words: np.ndarray, stego_symbols: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Flip each word's chips at its covert symbol's pattern, placed through its permutation."""
    return words ^ pattern_masks(perms)[np.arange(len(words)), stego_symbols]


def extract_diffs(
    diffs: np.ndarray, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covert symbols, exact flags and weights of diff words (received XOR nearest code).

    The symbol is the pattern at the least symmetric difference from the diff
    (ties to the lowest symbol); only a zero difference is exact.
    """
    distances = np.bitwise_count(diffs[:, None] ^ pattern_masks(perms))
    symbols = distances.argmin(axis=1).astype(np.uint8)
    return symbols, distances.min(axis=1) == 0, np.bitwise_count(diffs)


def _as_batch(permutation: tuple[int, ...]) -> np.ndarray:
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
    word = embed_words(np.array([carrier.word], np.uint32), stego_symbol, _as_batch(permutation))
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

    Despreads to the nearest standard code and takes the codebook pattern,
    placed through the permutation, at the least symmetric difference from
    the differing chips (ties to the lowest symbol).  Only a zero difference is exact; any
    other is a fallback with exact=False, so the covert channel degrades
    instead of erasing.
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
