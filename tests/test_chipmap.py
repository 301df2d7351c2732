import math
import random
from itertools import combinations

import numpy as np
import pytest

from dsss_stego import chipmap, stego
from dsss_stego.chipmap import (
    BLOCK_WORDS,
    CHIP_TABLE,
    CORRECTION_RADIUS,
    GUESS_WORDS,
    ChipSequence,
    code_matrix,
    code_set_stats,
    decode_chips,
    despread_stream,
    hamming,
    map_symbol,
    nearest,
    pack_chips,
    standard_code_set,
)


def brute_distance(a: str, b: str) -> int:
    # string-level oracle, independent of the popcount implementation
    return sum(1 for x, y in zip(a, b) if x != y)


def test_table_has_16_distinct_codes():
    assert len(CHIP_TABLE) == 16
    assert len(set(CHIP_TABLE)) == 16
    assert all(len(s) == 32 and set(s) <= {"0", "1"} for s in CHIP_TABLE)


def test_symbol_zero_chip_values():
    code = map_symbol(0)
    assert code.to_string() == "11011001110000110101001000101110"


def test_stats_match_standard_values():
    stats = code_set_stats()
    assert stats.d_min == 12
    assert stats.d_max == 20
    assert abs(stats.d_mean - 17.1) <= 0.05
    assert stats.d_min <= stats.d_mean <= stats.d_max


def test_stats_against_string_oracle():
    dists = [brute_distance(a, b) for a, b in combinations(CHIP_TABLE, 2)]
    assert len(dists) == 120
    stats = code_set_stats()
    assert stats.d_min == min(dists)
    assert stats.d_max == max(dists)
    assert stats.d_mean == pytest.approx(sum(dists) / 120, abs=1e-12)


def test_hamming_identity_and_complement():
    x = map_symbol(6)
    assert hamming(x, x) == 0
    flipped = x.flip(range(32))
    assert hamming(x, flipped) == 32


def test_hamming_between_codes():
    d = hamming(map_symbol(0), map_symbol(8))
    assert 12 <= d <= 20
    assert d == brute_distance(CHIP_TABLE[0], CHIP_TABLE[8])


def test_hamming_is_a_metric():
    rnd = random.Random(11)
    words = [ChipSequence(rnd.getrandbits(32)) for _ in range(60)]
    for _ in range(500):
        a, b, c = rnd.choice(words), rnd.choice(words), rnd.choice(words)
        assert hamming(a, b) >= 0
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
        assert (hamming(a, b) == 0) == (a == b)


def test_map_symbol_indexing_and_roundtrip():
    cs = standard_code_set()
    assert map_symbol(0) is cs[0]
    assert map_symbol(15) is cs[15]
    for s in range(16):
        assert decode_chips(map_symbol(s)) == (s, 0)
    for bad in (-1, 16):
        with pytest.raises(ValueError):
            map_symbol(bad)


def test_decode_exact_and_five_flips():
    assert decode_chips(map_symbol(7)) == (7, 0)
    rnd = random.Random(3)
    for _ in range(50):
        positions = rnd.sample(range(32), 5)
        got = decode_chips(map_symbol(3).flip(positions))
        assert got == (3, 5)


def test_decode_tiebreak_prefers_lower_symbol():
    # midpoint word between codes 2 and 9: flip half their differing chips
    cs = standard_code_set()
    diff = [i for i, c in enumerate(ChipSequence(cs[2].word ^ cs[9].word).chips) if c]
    assert len(diff) % 2 == 0
    mid = cs[2].flip(diff[: len(diff) // 2])
    d2 = hamming(mid, cs[2])
    d9 = hamming(mid, cs[9])
    assert d2 == d9 == len(diff) // 2
    others = [hamming(mid, cs[s]) for s in range(16) if s not in (2, 9)]
    assert min(others) > d2  # precondition: strictly farther from the rest
    assert decode_chips(mid) == (2, d2)


def test_decode_is_deterministic():
    word = ChipSequence(0xDEADBEEF)
    assert decode_chips(word) == decode_chips(word)


def test_correction_radius_exhaustive_small():
    # no flips and every single flip, over all symbols
    for s in range(16):
        code = map_symbol(s)
        assert decode_chips(code).symbol == s
        for p in range(32):
            assert decode_chips(code.flip([p])).symbol == s


def test_correction_radius_sampled():
    rnd = random.Random(20)
    for _ in range(10_000):
        s = rnd.randrange(16)
        k = rnd.randrange(2, 6)
        word = map_symbol(s).flip(rnd.sample(range(32), k))
        result = decode_chips(word)
        assert result == (s, k)


def test_string_round_trip_and_validation():
    for s in CHIP_TABLE:
        assert ChipSequence.from_string(s).to_string() == s
    with pytest.raises(ValueError):
        ChipSequence.from_string("01" * 15)
    with pytest.raises(ValueError):
        ChipSequence.from_string("2" * 32)


def test_code_words_and_chip_layout():
    # chip i of a word is bit i: the code words spell the table's chips, chip 0 first
    words = code_matrix()
    assert words.dtype == np.uint32 and words.shape == (16,)
    assert [f"{word:032b}"[::-1] for word in words.tolist()] == list(CHIP_TABLE)
    rows = np.random.default_rng(1).integers(0, 2, (3, 7, 32), dtype=np.uint8)
    packed = pack_chips(rows)
    assert packed.dtype == np.uint32 and packed.shape == (3, 7)
    for word, row in zip(packed.reshape(-1).tolist(), rows.reshape(-1, 32).tolist()):
        assert word == sum(chip << i for i, chip in enumerate(row))
        assert ChipSequence(word).chips == tuple(row)


def test_chip_sequence_invariants():
    seq = ChipSequence.from_string("10" * 16)
    assert len(seq) == 32
    assert seq.chips[:4] == (1, 0, 1, 0)
    with pytest.raises(ValueError):
        seq.flip([32])
    with pytest.raises(ValueError):
        ChipSequence.from_string("1" * 31)
    with pytest.raises(AttributeError):
        seq.word = 0


def test_correction_radius_is_five_from_d_min_twelve():
    assert code_set_stats().d_min == 12
    assert CORRECTION_RADIUS == 5
    assert stego.PATTERN_WEIGHT == CORRECTION_RADIUS


def masks_within(radius):
    # every uint32 mask of at most ``radius`` set bits: each weight's masks with one more bit set
    bits = np.uint32(1) << np.arange(32, dtype=np.uint32)
    masks = [np.zeros(1, dtype=np.uint32)]
    for weight in range(1, radius + 1):
        wider = np.unique(masks[-1][:, None] | bits)
        masks.append(wider[np.bitwise_count(wider) == weight])
    return np.concatenate(masks)


def test_every_word_within_the_radius_despreads_to_its_code():
    masks = masks_within(CORRECTION_RADIUS)
    assert masks.size == sum(math.comb(32, k) for k in range(CORRECTION_RADIUS + 1)) == 242_825
    words = (code_matrix()[:, None] ^ masks).ravel()
    symbols = np.repeat(np.arange(16, dtype=np.uint8), masks.size)
    assert np.array_equal(despread_stream(words), symbols)


def flipped_codes(rng, flips):
    # each word a random code with flips[i] of its chips flipped
    chips = rng.permuted(np.arange(32) < flips[:, None], axis=1)
    return code_matrix()[rng.integers(0, 16, flips.size)] ^ pack_chips(chips)


def halfway_codes(rng, n):
    # code a with 6 of the 12 chips where it differs from a code b flipped: a tie of a and b
    codes = code_matrix()
    pairs = np.argwhere(np.bitwise_count(codes[:, None] ^ codes) == 12)
    a, b = pairs[rng.integers(0, len(pairs), n)].T
    differ = ((codes[a] ^ codes[b])[:, None] >> np.arange(32, dtype=np.uint32)) & 1 == 1
    order = np.where(differ, rng.random((n, 32)), 2.0)  # differing chips first, in random order
    words = codes[a] ^ pack_chips(order.argsort(axis=1).argsort(axis=1) < 6)
    distances = np.bitwise_count(words[:, None] ^ codes)
    assert (distances[np.arange(n), a] == 6).all() and (distances[np.arange(n), b] == 6).all()
    return words


GUESS_LENGTHS = (
    1, BLOCK_WORDS - 1, BLOCK_WORDS, GUESS_WORDS - 1, GUESS_WORDS, GUESS_WORDS + 1,
    3 * GUESS_WORDS + 17,
)


def noisy_then_clean(rng, n):
    # a chunk of uniform words, which mostly miss their guesses, then exact code words
    noisy = rng.integers(0, 1 << 32, min(n, GUESS_WORDS), dtype=np.uint32)
    return np.concatenate((noisy, code_matrix()[rng.integers(0, 16, n - noisy.size)]))


@pytest.mark.parametrize("n", GUESS_LENGTHS)
@pytest.mark.parametrize("kind", ["flipped", "fading", "uniform", "halfway", "noisy-then-clean"])
def test_despread_equals_nearest(kind, n):
    rng = np.random.default_rng(n)
    if kind == "flipped":  # 0 to 32 flips, most near the radius: chunks mix kept and searched words
        words = flipped_codes(rng, np.where(rng.random(n) < 0.25, rng.integers(0, 33, n),
                                            rng.integers(0, 9, n)))
    elif kind == "fading":  # 0 flips rising to 32: chunks from all kept to mostly searched
        words = flipped_codes(rng, np.arange(n) * 33 // n)
    elif kind == "uniform":
        words = rng.integers(0, 1 << 32, n, dtype=np.uint32)
    elif kind == "halfway":
        words = halfway_codes(rng, n)
    else:
        words = noisy_then_clean(rng, n)
    got = despread_stream(words)
    assert got.dtype == np.uint8
    assert np.array_equal(got, nearest(words, code_matrix()) & 0xF)


def searched_words(monkeypatch, words):
    # despread the words, counting the words despreading sends to the 16-code search
    sent = []

    def counted(words, table):
        sent.append(words.size)
        return nearest(words, table)

    monkeypatch.setattr(chipmap, "nearest", counted)
    assert np.array_equal(despread_stream(words), nearest(words, code_matrix()) & 0xF)
    return sum(sent)


def test_exact_short_stream_searches_no_word(monkeypatch):
    # a stream shorter than one chunk is guessed too, so exact code words skip the search
    words = code_matrix()[np.random.default_rng(3).integers(0, 16, 500)]
    assert searched_words(monkeypatch, words) == 0


def test_a_noisy_chunk_leaves_later_chunks_guessed(monkeypatch):
    # each chunk is guessed alone: a chunk of uniform words does not send the clean rest to search
    words = noisy_then_clean(np.random.default_rng(4), 3 * GUESS_WORDS)
    assert searched_words(monkeypatch, words) <= GUESS_WORDS


# -- checked inputs ---------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        np.array([-1]),  # used to despread as 1: its key wrapped to the last guess
        np.array([1 << 32]),
        np.array([1 << 40]),  # used to raise IndexError from the guess table
        np.array([(1 << 64) - 1], dtype=np.uint64),
        np.array([code_matrix()[3], -5], dtype=np.int64),
        np.array([1.0]),
        np.array([True]),
    ],
)
def test_stream_words_must_be_32_bit_integers(bad):
    with pytest.raises(ValueError, match="words must be integers"):
        despread_stream(bad)


def test_integer_words_despread_as_their_uint32():
    rng = np.random.default_rng(7)
    words = rng.integers(0, 1 << 32, 3000, dtype=np.uint32)
    want = despread_stream(words)
    for dtype in (np.int64, np.uint64, np.intp):
        assert np.array_equal(despread_stream(words.astype(dtype)), want)
    assert np.array_equal(despread_stream(words.tolist()), want)
    small = np.arange(200, dtype=np.int8) & 0x7F
    assert np.array_equal(despread_stream(small), despread_stream(small.astype(np.uint32)))
    assert despread_stream(np.zeros(0, dtype=np.int64)).shape == (0,)


def test_uint32_words_are_checked_without_a_copy():
    words = code_matrix()[np.arange(16) % 16]
    assert chipmap._as_words(words) is words


@pytest.mark.parametrize("shape", [(2, 31), (1, 31), (33,), (64,), (3, 2, 16), (0,), ()])
def test_pack_chips_needs_32_chips_a_word(shape):
    # 31 columns used to pack across rows: (2, 31) gave 2 words of 62 chips, and
    # (1, 31) of ones gave 0x7fffffff
    with pytest.raises(ValueError, match="32 chips"):
        pack_chips(np.ones(shape))
    assert pack_chips(np.ones((2, 32))).tolist() == [0xFFFFFFFF, 0xFFFFFFFF]
    assert pack_chips(np.ones((0, 32))).shape == (0,)
