import random
from itertools import combinations

import numpy as np
import pytest

from dsss_stego.chipmap import (
    CHIP_TABLE,
    ChipSequence,
    code_matrix,
    code_set_stats,
    decode_chips,
    hamming,
    map_symbol,
    pack_chips,
    standard_code_set,
    unpack_chips,
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
    # chip i of a word is bit i: unpacking the code words gives the table's chips
    words = code_matrix()
    assert words.dtype == np.uint32 and words.shape == (16,)
    assert ["".join(map(str, row)) for row in unpack_chips(words).tolist()] == list(CHIP_TABLE)
    rng = np.random.default_rng(1)
    words = rng.integers(0, 1 << 32, 500, dtype=np.uint32)
    assert (pack_chips(unpack_chips(words)) == words).all()
    rows = rng.integers(0, 2, (3, 7, 32), dtype=np.uint8)
    assert pack_chips(rows).shape == (3, 7)
    assert (unpack_chips(pack_chips(rows).reshape(-1)) == rows.reshape(-1, 32)).all()
    for word, row in zip(words[:50].tolist(), unpack_chips(words[:50]).tolist()):
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
