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
its stream and the state after it are one int, an XOR of rows of a
key-independent table (``_basis``); the two registers' ints are XORed.  The
rejection walk of the Fisher-Yates draws accepts or rejects a draw on how
its bits compare with the bound's own, so it is a 247-state automaton, and
it steps once a stream byte (``_automaton``).  Its states and a (state, byte)
table of accepted-draw ends place every accepted draw of a stretch of stream;
only the rows asked for read their draws back from the stream bytes and run
their swaps, so no whole-stream table is made.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple

import numpy as np

from .chipmap import (
    BLOCK_WORDS, CHIPS_PER_SYMBOL, CORRECTION_RADIUS, REVERSED_BITS, SYMBOL_VALUES, ChipSequence,
    code_matrix, decode_chips, nearest_table
)

PATTERN_WEIGHT = CORRECTION_RADIUS  # flips a pattern: the most a carrier despreads through
MIN_PATTERN_SEPARATION = 6  # symmetric-difference floor between patterns

# Maximal-length Fibonacci LFSR feedback taps (bit positions, 1-based).
# The permutation keystream XORs one register per polynomial: a single
# sparse-tap register's bit stream carries window correlations strong
# enough to bias the position shuffle (visible in chi-square uniformity
# tests); the combined stream measures clean.  The embedding schedule
# runs its own single register, on the secondary taps, so the two keyed
# streams stay apart.
PRIMARY_TAPS = (32, 22, 2, 1)
SECONDARY_TAPS = (32, 30, 26, 25)
_SPAN = 1 << 14  # stream bits made per XOR of basis rows (_spans)
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # a binary digit's character to its value


class InvalidCarrierError(ValueError):
    """The carrier word is not one of the 16 standard codes."""


class CodebookError(RuntimeError):
    """Greedy pattern construction could not reach 16 patterns."""


def _colex_masks(k: int, n: int):
    """The k-subsets of range(n), 0 < k <= n, as bit masks in increasing order, which
    is the subsets' colexicographic order; each next mask by Gosper's step."""
    mask = (1 << k) - 1
    while mask < 1 << n:
        yield mask
        low = mask & -mask
        carried = mask + low
        mask = carried | ((carried ^ mask) >> 2) // low


@dataclass(frozen=True)
class StegoCodebook:
    """16 five-position flip patterns, indexed by covert symbol value, as 32-bit position masks."""

    masks: tuple[int, ...]

    @property
    def patterns(self) -> tuple[tuple[int, ...], ...]:
        """Each mask's positions, ascending."""
        return tuple(tuple(p for p in range(CHIPS_PER_SYMBOL) if m >> p & 1) for m in self.masks)

    def min_pairwise_distance(self) -> int:
        return min((a ^ b).bit_count() for i, a in enumerate(self.masks) for b in self.masks[:i])


@functools.lru_cache(maxsize=1)
def build_codebook() -> StegoCodebook:
    """Greedy colex scan accepting subsets that keep pairwise separation >= 6.

    Deterministic: the same 16 patterns come out on every run, and the
    first accepted pattern is always {0,1,2,3,4}.
    """
    accepted: list[int] = []
    # separation >= 6 between weight-5 sets is intersection <= 2
    max_overlap = PATTERN_WEIGHT - MIN_PATTERN_SEPARATION // 2
    for cand in _colex_masks(PATTERN_WEIGHT, CHIPS_PER_SYMBOL):
        for prev in accepted:
            if (cand & prev).bit_count() > max_overlap:
                break
        else:
            accepted.append(cand)
            if len(accepted) == SYMBOL_VALUES:
                break
    if len(accepted) < SYMBOL_VALUES:
        raise CodebookError(
            f"only {len(accepted)} patterns at separation {MIN_PATTERN_SEPARATION}"
        )
    return StegoCodebook(tuple(accepted))


def _as_int(name: str, value) -> int:
    """An integer (numpy's too) as an int; ValueError for a bool or a non-integer."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class StegoKey:
    """Shared 16-bit scrambling key, written as 4 hex digits (e.g. "ACE1")."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_int("seed", self.seed))
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


def _spans(seed: int, taps: tuple[int, ...], size: int) -> list[int]:
    """A register's stream from `seed`, `size` bytes at least, as ints of _SPAN + 32 bits: int k
    holds stream bits k * _SPAN onwards, bit n at bit n, so it ends with the state int k + 1 starts.

    The 32-bit register shifts right, outputs its low bit and feeds back the parity of the tapped
    bits, so the stream x starts with the seed bits, LSB first, and x[n + 32] = XOR of x[n + m]
    for m = 32 - t over the taps; its state at stream position p is x[p:p + 32].  It is linear
    over GF(2): the XOR of the `_basis` rows of a state's set bits is the next _SPAN + 32 bits.
    """
    if not 0 < seed < 1 << 32:
        raise ValueError(f"LFSR seed must be a nonzero 32-bit value, got {seed}")
    rows, spans, state = _basis(tuple(taps)), [], seed
    for _ in range(0, size, _SPAN // 8):
        digits = bin(state)[:1:-1].encode().translate(_DIGITS)  # byte k is bit k of the state
        spans.append(functools.reduce(operator.xor, compress(rows, digits)))
        state = spans[-1] >> _SPAN
    return spans


def _span_bytes(spans: Iterable[int]) -> bytes:
    """The spans' stream bits as bytes, 8 bits a byte, LSB first."""
    return b"".join([span.to_bytes(4 + _SPAN // 8, "little")[: _SPAN // 8] for span in spans])


def _stream_bytes(seed: int, taps: tuple[int, ...], size: int) -> bytes:
    """The first `size` bytes of a register's stream (`_spans`), 8 bits a byte, LSB first."""
    return _span_bytes(_spans(seed, taps, size))[:size]


# Fisher-Yates swap i = 31..1 draws j <= i from the next w = i.bit_length() stream
# bits, MSB first, and draws again while j > i (no modulo bias)
_BOUNDS = tuple(range(CHIPS_PER_SYMBOL - 1, 0, -1))
_WIDTH_MASKS = np.array([(1 << i.bit_length()) - 1 for i in _BOUNDS], dtype=np.uint8)
# keystream bits one permutation uses on average (171.8, standard deviation 17.3); a
# stretch walks 2 more a permutation, 3.9 deviations at 500 permutations, 7.8 at 4096
_MEAN_BITS = 172
_ROW_CHUNK = BLOCK_WORDS // 4  # rows whose draws are read and shuffled at once


def _bit_steps() -> tuple[np.ndarray, np.ndarray]:
    """The walk read one stream bit at a time: the (states, 2) state after bit 0 or 1
    from each state, and whether that bit ends an accepted draw.

    A state is draw d (of bound i = 31 - d and width w), k < w bits of it read,
    and whether those bits are below (-1), equal to (0) or above (1) the first
    k bits of i: below accepts after w bits, above rejects, and equal counts as
    below once i's remaining bits are all 1.  The states reachable from the
    first draw's, 247 of them, are numbered from 0 in breadth-first order.
    """
    def settle(d: int, k: int, order: int) -> tuple[int, int, int]:
        rest = (1 << (_BOUNDS[d].bit_length() - k)) - 1
        return d, k, -1 if order == 0 and _BOUNDS[d] & rest == rest else order

    states = [settle(0, 0, 0)]
    number, steps, accepts = {states[0]: 0}, [], []
    for d, k, order in states:  # grows as states are found
        bound = _BOUNDS[d]
        width = bound.bit_length()
        top = bound >> (width - 1 - k) & 1
        for bit in (0, 1):
            now = order or (bit > top) - (bit < top)
            if k + 1 < width:
                after = settle(d, k + 1, now)
            else:  # the draw is read: the next one, or this one again
                after = settle((d + 1) % len(_BOUNDS) if now <= 0 else d, 0, 0)
            steps.append(number.setdefault(after, len(states)))
            if steps[-1] == len(states):
                states.append(after)
            accepts.append(k + 1 == width and now <= 0)
    return np.array(steps, np.uint8).reshape(-1, 2), np.array(accepts, np.uint8).reshape(-1, 2)


@functools.lru_cache(maxsize=1)
def _automaton() -> tuple[tuple[bytes, ...], np.ndarray]:
    """The walk read one stream byte at a time, its bits MSB first.

    Row s of the first table is the state after each byte from state s, and
    entry (s << 8 | byte) of the second has bit 7 - j set iff the byte's j-th
    bit ends an accepted draw.  Both come from the one-bit step by three
    doublings: the first n bits from s, then n more from where those left.
    """
    table, ends = _bit_steps()
    for n in (1, 2, 4):
        later = ends[table]  # [s, first n bits, next n bits]
        later |= ends[:, :, None] << n
        table, ends = table[table].reshape(len(table), -1), later.reshape(len(table), -1)
    return tuple(map(bytes, table)), ends.reshape(-1)


def _walk(stream: bytes, count: int) -> tuple[int, int, np.ndarray]:
    """How many of up to `count` permutations the stream holds whole, the stream position
    after them and where each of their 31 accepted draws ends: its last bit, (done, 31) int32.

    The stream's bytes are read MSB first, from a permutation's first draw.  One
    step a byte gives the state after every byte; the state before each and the
    byte pick its draw ends.
    """
    table, ends_at = _automaton()
    s = 0
    after = bytes([s := table[s][b] for b in stream])
    at = np.frombuffer((b"\0" + after)[:-1], np.uint8).astype(np.uint16)
    at <<= 8
    at |= np.frombuffer(stream, np.uint8)
    ends = np.flatnonzero(np.unpackbits(np.take(ends_at, at)).view(bool))
    done = min(count, len(ends) // len(_BOUNDS))
    ends = ends[: done * len(_BOUNDS)].astype(np.int32).reshape(done, len(_BOUNDS))
    return done, int(ends[-1, -1]) + 1 if done else 0, ends


def _draws(stream: bytes, ends: np.ndarray) -> np.ndarray:
    """The draws that end at `ends` (int32, a column a swap) in a stream read MSB first.

    words[q] holds bits 8q..8q+15, so a draw's last bit e is bit 11 - (e - 4) % 8
    of words[(e - 4) // 8]: every draw ends at bit 4 or later, and spans 5 bits at most.
    """
    words = np.ndarray(len(stream) - 1, ">u2", stream, strides=(1,)).astype(np.uint16)  # native
    first = ends - 4
    return (words[first >> 3] >> (11 - (first & 7)) & _WIDTH_MASKS).astype(np.uint8)


def _shuffle(draws: np.ndarray) -> np.ndarray:
    """Fisher-Yates swaps of all rows at once: column c swaps 31 - c with its draw.
    They run on the (32, n) transpose, where each swap reads a contiguous row."""
    n = len(draws)
    perms = np.repeat(np.arange(CHIPS_PER_SYMBOL, dtype=np.uint8), n).reshape(CHIPS_PER_SYMBOL, n)
    flat, ats = perms.reshape(-1), np.array(draws.T, dtype=np.intp, order="C")
    ats *= n
    ats += np.arange(n)  # the flat index of each swap's drawn position
    for at, i in zip(ats, _BOUNDS):
        picked = flat[at]
        flat[at] = perms[i]
        perms[i] = picked
    return np.ascontiguousarray(perms.T)


def permutation_stream(state_a: int, state_b: int, rows: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The permutations at stream offsets `rows` and the register states after the last.

    The keystream is the primary register's stream XOR the secondary's.
    Row k of the (len(rows), 32) uint8 result maps codebook position p to
    chip row[p].  The stream is made and walked a stretch of up to
    BLOCK_WORDS permutations at a time, each continued from the states after
    the last whole permutation of the one before; one that falls short
    doubles the slack of the next.  A stretch reads the draws of only its
    rows asked for back from its stream bytes, and shuffles them.  The rows
    are integers, >= 0 and non-decreasing; a repeated row repeats its permutation.
    """
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"rows must be a 1-D integer array, got {rows.ndim}-D {rows.dtype}")
    if (rows[:1] < 0).any() or (rows[1:] < rows[:-1]).any():
        raise ValueError("rows must be >= 0 and non-decreasing")
    out = np.empty((len(rows), CHIPS_PER_SYMBOL), dtype=np.uint8)
    done, kept, slack = 0, 0, 512
    count = int(rows[-1]) + 1 if len(rows) else 0
    while done < count:
        todo = min(count - done, BLOCK_WORDS)
        size = (todo * (_MEAN_BITS + 2) + slack) // 8  # bytes walked; _draws reads 1 more
        a, b = _spans(state_a, PRIMARY_TAPS, size + 1), _spans(state_b, SECONDARY_TAPS, size + 1)
        stream = _span_bytes(map(operator.xor, a, b)).translate(REVERSED_BITS)  # read MSB first
        walked, pos, ends = _walk(stream[:size], todo)
        slack *= 1 if walked == todo else 2
        end = int(np.searchsorted(rows, done + walked))
        for at in range(kept, end, _ROW_CHUNK):
            chunk = rows[at : min(at + _ROW_CHUNK, end)] - done
            out[at : at + len(chunk)] = _shuffle(_draws(stream, ends[chunk]))
        kept, done = end, done + walked
        state_a, state_b = (x[pos // _SPAN] >> pos % _SPAN & 0xFFFFFFFF for x in (a, b))
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
    num_symbols = _as_int("num_symbols", num_symbols)
    if num_symbols < 0:
        raise ValueError(f"num_symbols must be >= 0, got {num_symbols}")
    if embed_rate in (0.0, 1.0):
        return np.full(num_symbols, embed_rate == 1.0)
    stream = _stream_bytes(key_registers(key)[0], SECONDARY_TAPS, 2 * num_symbols)
    # d / 65536 < r as d < r * 65536: both are exact power-of-two scalings
    return np.frombuffer(stream.translate(REVERSED_BITS), ">u2") < embed_rate * 65536.0


def slot_permutations(key: StegoKey, slots: np.ndarray) -> np.ndarray:
    """Keyed permutations of ascending stream slots, one (32,) row each."""
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
        symbol_index = _as_int("symbol_index", symbol_index)
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
    """The (16,) uint32 codebook masks and their span: the uint32 positions 0 to their top bit."""
    masks = np.array(build_codebook().masks, dtype=np.uint32)
    return masks, np.arange(int(masks.max()).bit_length(), dtype=np.uint32)


@functools.lru_cache(maxsize=1)
def _read_keys() -> np.ndarray:
    """The read key of each span word, built on the first extraction: no encoder reads it."""
    masks, span = _mask_table()
    return nearest_table(masks, len(span))


def embed_words(words: np.ndarray, stego_symbols: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Flip each word's chips at its covert symbol's pattern, placed through its permutation.

    Bit p of the pattern's mask flips chip perms[k, p]: the span's permutation
    columns are read on their (span, block) transpose, a block of words at a time.
    """
    masks, span = _mask_table()
    if perms.shape != (len(words), CHIPS_PER_SYMBOL):
        raise ValueError(f"perms must be ({len(words)}, 32), a row a word, got {perms.shape}")
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
    mask), looked up in the read keys a block of words at a time.  A slot is exact
    iff its read word is a mask and its diff has no other chip: weight 5.
    """
    place, read = 1 << _mask_table()[1], _read_keys()  # each span bit's place in a read word
    if perms.shape != (len(diffs), CHIPS_PER_SYMBOL):
        raise ValueError(f"perms must be ({len(diffs)}, 32), a row a word, got {perms.shape}")
    symbols = np.empty(len(diffs), dtype=np.uint8)
    exact = np.empty(len(diffs), dtype=bool)
    weight = np.bitwise_count(diffs)
    for start in range(0, len(diffs), BLOCK_WORDS):
        block = slice(start, start + BLOCK_WORDS)
        bits = (diffs[block] >> perms[block, : len(place)].T) & 1  # (span, block)
        keys = read.take(place @ bits)
        symbols[block] = keys & 0xF
        exact[block] = (keys < 16) & (weight[block] == PATTERN_WEIGHT)
    return symbols, exact, weight


class ExtractResult(NamedTuple):
    symbol: int
    exact: bool
    weight: int  # size of the observed diff set; 5 when cleanly embedded


def embed(
    carrier: ChipSequence, stego_symbol: int, schedule: KeySchedule, symbol_index: int
) -> ChipSequence:
    """Embed a covert symbol into a standard spreading code.

    The output differs from the carrier in exactly 5 chips and still
    despreads to the carrier's data symbol (residual distance 5, all
    other codes at distance >= 7).
    """
    if decode_chips(carrier).distance != 0:
        raise InvalidCarrierError(f"carrier {carrier.to_string()} is not a standard spreading code")
    stego_symbol = _as_int("stego_symbol", stego_symbol)
    if not 0 <= stego_symbol < SYMBOL_VALUES:
        raise ValueError(f"stego symbol out of range: {stego_symbol}")
    perms = np.array([schedule.permutation(symbol_index)], np.uint8)
    word = embed_words(np.array([carrier.word], np.uint32), np.array([stego_symbol]), perms)
    return ChipSequence(int(word[0]))


def extract(received: ChipSequence, schedule: KeySchedule, symbol_index: int) -> ExtractResult:
    """Read the covert symbol back from the received word's diff set.

    Despreads to the nearest standard code, reads the differing chips back
    through symbol_index's permutation and takes the codebook pattern at the least
    symmetric difference from them (ties to the lowest symbol).  Only the
    pattern itself, with no other chip, is exact; any other diff is a fallback
    with exact=False, so the covert channel degrades instead of erasing.
    """
    diff = received.word ^ int(code_matrix()[decode_chips(received).symbol])
    perms = np.array([schedule.permutation(symbol_index)], np.uint8)
    symbol, exact, weight = extract_diffs(np.array([diff], np.uint32), perms)
    return ExtractResult(int(symbol[0]), bool(exact[0]), int(weight[0]))
