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
bit at a time: f(z)^(2^k) = f(z^(2^k)) over GF(2) lets numpy produce 2^k
register bits per step (``lfsr_bits``).  A register's state is the next
32 bits of its output stream, so a stream continues exactly from saved
states.  One lean walk reads the rejection-sampled Fisher-Yates draws
off 5-bit stream windows; the swaps then run over all symbols at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .chipmap import CHIPS_PER_SYMBOL, ChipSequence, decode_chips, standard_code_set

PATTERN_WEIGHT = 5          # = floor((d_min - 1) / 2) for d_min = 12
MIN_PATTERN_SEPARATION = 6  # symmetric-difference floor between patterns
CODEBOOK_SIZE = 16
SUBSET_COUNT = math.comb(CHIPS_PER_SYMBOL, PATTERN_WEIGHT)  # 201376

# Maximal-length Fibonacci LFSR feedback taps (bit positions, 1-based).
# The permutation keystream XORs one register per polynomial: a single
# sparse-tap register's bit stream carries window correlations strong
# enough to bias the position shuffle (visible in chi-square uniformity
# tests); the combined stream measures clean.  The embedding schedule
# runs its own single register so the two keyed streams stay apart.
PRIMARY_TAPS = (32, 22, 2, 1)
SECONDARY_TAPS = (32, 30, 26, 25)
SCHEDULE_TAPS = SECONDARY_TAPS


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
        # the patterns as 32-bit position masks and as (16, 32) 0/1 rows
        masks = tuple(sum(1 << p for p in pat) for pat in self.patterns)
        indicator = (np.array(masks)[:, None] >> np.arange(CHIPS_PER_SYMBOL)) & 1
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "indicator", indicator.astype(np.uint8))

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
        if len(text) != 4:
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


_INT_STRIDE, _MAX_STRIDE = 256, 1 << 14  # strides up to 256 run on a Python int


def lfsr_bits(seed: int, taps: tuple[int, ...], count: int) -> np.ndarray:
    """First `count` output bits (uint8 0/1) of a register seeded with `seed`.

    The 32-bit register shifts right, outputs its low bit and feeds back the
    parity of the tapped bits, so the stream x starts with the seed bits,
    LSB first, and x[n + 32] = XOR of x[n + m] for m = 32 - t over the taps.
    Its state at stream position p is x[p:p + 32].  As f(z)^(2^k) = f(z^(2^k))
    over GF(2), x[n + 32L] = XOR of x[n + mL] for every stride L = 2^k, so
    one step makes L bits from the 32L before them.
    """
    if not 0 < seed < 1 << 32:
        raise ValueError(f"LFSR seed must be a nonzero 32-bit value, got {seed}")
    lags = [32 - t for t in taps]
    x, n, stride, head_bits = seed, 32, 1, min(count, 64 * _INT_STRIDE)
    while n < head_bits:
        stride *= 2 if n >= 64 * stride else 1
        window, new = x >> (n - 32 * stride), 0
        for m in lags:
            new ^= window >> (m * stride)
        x |= (new & ((1 << stride) - 1)) << n
        n += stride
    bits = np.empty(max(n, count) + _MAX_STRIDE + 8, dtype=np.uint8)
    head = np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    bits[: 8 * head.size] = np.unpackbits(head, bitorder="little")
    while n < count:
        stride *= 2 if n >= 64 * stride and stride < _MAX_STRIDE else 1
        base = n - 32 * stride
        first, second, *rest = [bits[base + m * stride :][:stride] for m in lags]
        out = np.bitwise_xor(first, second, out=bits[n : n + stride])
        for taps_at in rest:
            out ^= taps_at
        n += stride
    return bits[:count]


def _state_at(bits: np.ndarray, pos: int) -> int:
    """The register state at stream position `pos`: the next 32 bits, LSB first."""
    return int.from_bytes(np.packbits(bits[pos : pos + 32], bitorder="little").tobytes(), "little")


# (bound i, window shift, draw width) of each Fisher-Yates swap, i = 31..1
_DRAWS = tuple((i, 5 - i.bit_length(), i.bit_length()) for i in range(CHIPS_PER_SYMBOL - 1, 0, -1))
_MEAN_BITS = 172        # keystream bits one permutation uses on average (171.8)
_CHUNK = 4096           # permutations walked per stretch of generated stream


def _permute(windows: memoryview, append) -> int:
    """Append one permutation's 31 accepted draws and return the bits it used:
    windows[p] holds stream bits p..p+4, MSB first, a w-bit draw is its top w
    bits, and a draw above its bound is rejected (no modulo bias)."""
    pos = 0
    for i, shift, width in _DRAWS:
        j = windows[pos] >> shift
        pos += width
        while j > i:
            j = windows[pos] >> shift
            pos += width
        append(j)
    return pos


def _walk(windows: memoryview, draws: bytearray, count: int, segment: int) -> tuple[int, int]:
    """Draws of up to `count` permutations, each from at most `segment` windows (small
    positions stay cached ints): returns how many fit and the stream position after them."""
    start = 0
    for done in range(count):
        mark = len(draws)
        try:
            start += _permute(windows[start : start + segment], draws.append)
        except IndexError:  # past the segment or the windows: drop a partial one
            del draws[mark:]
            return done, start
    return count, start


def _shuffle(draws: np.ndarray) -> np.ndarray:
    """Fisher-Yates swaps of all rows at once: column c swaps 31 - c with its draw."""
    perms = np.tile(np.arange(CHIPS_PER_SYMBOL, dtype=np.uint8), (len(draws), 1))
    rows = np.arange(len(draws))
    for col, (i, _, _) in enumerate(_DRAWS):
        j = draws[:, col]
        picked = perms[rows, j]
        perms[rows, j] = perms[:, i]
        perms[:, i] = picked
    return perms


def permutation_stream(state_a: int, state_b: int, count: int) -> tuple[np.ndarray, int, int]:
    """The next `count` keyed permutations and the register states after them.

    The keystream is the primary register's stream XOR the secondary's.
    Row k of the (count, 32) uint8 result maps codebook position p to chip
    row[p].  The stream is made a stretch at a time, each continued from
    the states after the last whole permutation of the one before; one
    that falls short doubles the slack (and segment) of the next.
    """
    draws = bytearray()
    done, slack = 0, 512
    while done < count:
        todo = min(count - done, _CHUNK)
        size = todo * (_MEAN_BITS + 8) + slack
        keystream = lfsr_bits(state_a, PRIMARY_TAPS, size)
        b = lfsr_bits(state_b, SECONDARY_TAPS, size)
        keystream ^= b
        m = size - 36  # a walk ends by m + 4, leaving a whole state after it
        windows = keystream[:m].copy()
        for k in range(1, 5):
            windows <<= 1
            windows |= keystream[k : m + k]
        walked, pos = _walk(memoryview(windows), draws, todo, slack)
        slack *= 1 if walked == todo else 2
        done += walked
        state_b = _state_at(b, pos)
        state_a = _state_at(keystream, pos) ^ state_b
    perms = _shuffle(np.frombuffer(draws, dtype=np.uint8).reshape(count, len(_DRAWS)))
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


def inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


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
    return carrier.flip(permutation[p] for p in build_codebook().patterns[stego_symbol])


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

    Despreads to the nearest standard code, unpermutes the differing
    positions and takes the pattern at the least symmetric difference
    (ties to the lowest symbol).  Only a zero difference is exact; any
    other is a fallback with exact=False, so the covert channel degrades
    instead of erasing.
    """
    nearest = decode_chips(received)
    inv = inverse_permutation(permutation)
    code = standard_code_set().codes[nearest.symbol]
    observed = sum(1 << inv[p] for p in received.diff_positions(code))
    dists = [(observed ^ mask).bit_count() for mask in build_codebook().masks]
    best = min(dists)
    return ExtractResult(dists.index(best), best == 0, observed.bit_count())


def extract(
    received: ChipSequence,
    schedule: KeySchedule,
    symbol_index: int,
) -> ExtractResult:
    return extract_with_permutation(received, schedule.permutation(symbol_index))
