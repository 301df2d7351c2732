import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import dsss_stego
from dsss_stego import stego
from dsss_stego.chipmap import (
    ChipSequence,
    decode_chips,
    hamming,
    map_symbol,
    pack_chips,
    standard_code_set,
)
from dsss_stego.pipeline import bits_to_symbols, decode_stream, encode_stream, slot_permutations
from dsss_stego.stego import (
    MIN_PATTERN_SEPARATION,
    PRIMARY_TAPS,
    SECONDARY_TAPS,
    SUBSET_COUNT,
    InvalidCarrierError,
    KeySchedule,
    StegoKey,
    _basis,
    _SPAN,
    build_codebook,
    embed,
    embed_with_permutation,
    extract,
    extract_with_permutation,
    lfsr_bits,
    permutation_stream,
    rank_subset,
    unrank_subset,
)

from test_golden import oracle_bits

# df=31 chi-square critical value at the 1% significance level
CHI2_CRIT_31_P99 = 52.1914


@lru_cache(maxsize=1)
def colex_enumeration():
    # independent oracle: enumerate all 5-subsets and sort colexicographically
    subs = sorted(combinations(range(32), 5), key=lambda s: sorted(s, reverse=True))
    assert len(subs) == SUBSET_COUNT
    return subs


def test_unrank_corners():
    assert unrank_subset(0) == (0, 1, 2, 3, 4)
    assert unrank_subset(SUBSET_COUNT - 1) == (27, 28, 29, 30, 31)


def test_unrank_against_enumeration_oracle():
    subs = colex_enumeration()
    assert unrank_subset(100_000) == subs[100_000]
    for r in range(0, SUBSET_COUNT, 997):
        assert unrank_subset(r) == subs[r]


def test_rank_unrank_bijection():
    for r in range(0, SUBSET_COUNT, 631):
        assert rank_subset(unrank_subset(r)) == r
    assert rank_subset((0, 1, 2, 3, 4)) == 0


def test_unrank_range_errors():
    for bad in (-1, SUBSET_COUNT):
        with pytest.raises(ValueError):
            unrank_subset(bad)
    with pytest.raises(ValueError):
        rank_subset((0, 1, 2, 3))
    with pytest.raises(ValueError):
        rank_subset((0, 1, 2, 3, 32))


def test_codebook_construction():
    book = build_codebook()
    assert len(book.patterns) == 16
    assert book.patterns[0] == (0, 1, 2, 3, 4)
    assert len(set(book.patterns)) == 16
    for pat in book.patterns:
        assert len(pat) == 5
        assert all(0 <= p < 32 for p in pat)


def test_codebook_min_separation_exhaustive():
    book = build_codebook()
    sets = [set(p) for p in book.patterns]
    pair_dists = [len(a ^ b) for a, b in combinations(sets, 2)]
    assert len(pair_dists) == 120
    assert min(pair_dists) >= MIN_PATTERN_SEPARATION
    assert book.min_pairwise_distance() == min(pair_dists)


def test_codebook_deterministic():
    fresh = build_codebook.__wrapped__()
    assert fresh.patterns == build_codebook().patterns


# -- LFSR ------------------------------------------------------------------

def _gf2_powmod(base: int, e: int, mod: int) -> int:
    deg = mod.bit_length() - 1
    r = 1
    while e:
        if e & 1:
            # polynomial multiply r*base mod `mod`
            a, b, acc = base, r, 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if (a >> deg) & 1:
                    a ^= mod
            r = acc
        # square base
        a, b, acc = base, base, 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if (a >> deg) & 1:
                a ^= mod
        base = acc
        e >>= 1
    return r


@pytest.mark.parametrize("taps", [PRIMARY_TAPS, SECONDARY_TAPS])
def test_taps_are_maximal_length(taps):
    # x^32 + ... + 1 must be primitive: order of x is exactly 2^32 - 1
    poly = (1 << 32) | 1
    for t in taps:
        poly |= 1 << t
    order = (1 << 32) - 1
    assert _gf2_powmod(2, order, poly) == 1
    for q in (3, 5, 17, 257, 65537):  # prime factors of 2^32 - 1
        assert _gf2_powmod(2, order // q, poly) != 1


def test_lfsr_state_never_zero():
    # the register state at stream position p is bits p..p+31
    bits = lfsr_bits(0x0001, PRIMARY_TAPS, 100_000 + 32)
    ones = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    assert (ones[32:] - ones[:-32] > 0).all()
    with pytest.raises(ValueError):
        lfsr_bits(0, PRIMARY_TAPS, 64)


def test_lfsr_deterministic():
    a = lfsr_bits(0xBEEF, PRIMARY_TAPS, 256)
    b = lfsr_bits(0xBEEF, PRIMARY_TAPS, 256)
    assert (a == b).all()


def test_lfsr_pair_keystream():
    def combined(seed_a, seed_b):
        return lfsr_bits(seed_a, PRIMARY_TAPS, 1024) ^ lfsr_bits(seed_b, SECONDARY_TAPS, 1024)

    words = combined(0xDEADBEEF, 0x12345678)
    assert (words == combined(0xDEADBEEF, 0x12345678)).all()
    _, a, b = permutation_stream(0xDEADBEEF, 0x12345678, 64)
    assert a != 0 and b != 0
    # combined stream differs from either component stream
    assert (words != lfsr_bits(0xDEADBEEF, PRIMARY_TAPS, 1024)).any()
    with pytest.raises(ValueError):
        permutation_stream(0, 1, 1)


def test_keystream_memory_bounded():
    # the cursor keeps one block, not a state per symbol generated so far
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    tracemalloc.start()
    try:
        for i in range(100_000):
            sched.permutation(i)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sched.symbol_counter >= 100_000
    assert retained < 1 << 20


def test_decode_diagnostics_memory_bounded():
    # per-slot diagnostics are a few bytes each, not a Python object per slot
    key, slots = StegoKey.from_hex("ACE1"), np.arange(100_000)
    perms = slots, slot_permutations(key, slots)  # derived untraced: the walk is slow under it
    words = encode_stream(np.zeros(400_000, dtype=np.uint8), [], key, 1.0, perms=perms)
    tracemalloc.start()
    try:
        decoded = decode_stream(words, key, 1.0, perms=perms)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(decoded.slots) == 100_000
    assert retained < 4 << 20


@pytest.mark.parametrize("taps", [PRIMARY_TAPS, SECONDARY_TAPS])
@pytest.mark.parametrize("seed", [0x1, 0x80000000, 0xFFFFFFFF])
def test_register_bits_exact_at_span_edges(seed, taps):
    # test_golden covers _SPAN + 1 and two whole boundaries; these sit on either side
    counts = (_SPAN - 1, _SPAN, _SPAN + 32, 3 * _SPAN + 5)
    want = oracle_bits(seed, taps, max(counts))
    for count in counts:
        assert lfsr_bits(seed, taps, count).tolist() == want[:count]


@pytest.mark.parametrize("taps", [PRIMARY_TAPS, SECONDARY_TAPS])
def test_basis_rows_are_one_hot_streams(taps):
    rows = _basis(taps)
    assert len(rows) == 32
    for k, row in enumerate(rows):
        assert row.bit_length() <= 32 + _SPAN
        bits = [(row >> i) & 1 for i in range(32 + _SPAN)]
        assert bits == oracle_bits(1 << k, taps, 32 + _SPAN)


def test_basis_lazy_and_bounded():
    # a fresh interpreter: importing builds no table, a covert simulation
    # builds at most one per tap set, and together they stay small
    script = """
import json, sys
import dsss_stego
from dsss_stego import stego
from dsss_stego.channel import ChannelParams
at_import = stego._basis.cache_info().currsize
dsss_stego.run_simulation(dsss_stego.SimConfig(
    num_symbols=500, channel=ChannelParams.from_snr_db(0.0),
    key=dsss_stego.StegoKey.from_hex("ACE1"), embed_rate=0.5, rng_seed=1))
after = stego._basis.cache_info().currsize
tables = [stego._basis(t) for t in {stego.PRIMARY_TAPS, stego.SECONDARY_TAPS}]
print(json.dumps({
    "at_import": at_import, "after": after, "misses": stego._basis.cache_info().misses,
    "bytes": sum(sys.getsizeof(t) + sum(map(sys.getsizeof, t)) for t in tables)}))
"""
    src = str(Path(dsss_stego.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    info = json.loads(out.stdout)
    assert info["at_import"] == 0
    assert info["after"] <= 2 and info["misses"] == info["after"]
    assert info["bytes"] < 256 * 1024


def test_stretch_too_short_for_one_permutation_grows(monkeypatch):
    # a first stretch of 84 windows holds no whole permutation; the slack must
    # grow until one fits, and the output must not depend on where stretches end
    states = stego.key_registers(StegoKey.from_hex("ACE1"))
    want, *want_states = permutation_stream(*states, 5)
    monkeypatch.setattr(stego, "_CHUNK", 1)
    monkeypatch.setattr(stego, "_MEAN_BITS", -400)
    lfsr, walk, streams, walked = stego.lfsr_bits, stego._walk, [], []

    def counted_lfsr(*args):
        streams.append(args)
        assert len(streams) < 100, "the stretch never grows"
        return lfsr(*args)

    def recorded_walk(*args):
        result = walk(*args)
        walked.append(result[0])
        return result

    monkeypatch.setattr(stego, "lfsr_bits", counted_lfsr)
    monkeypatch.setattr(stego, "_walk", recorded_walk)
    got, *got_states = permutation_stream(*states, 5)
    assert walked[0] == 0
    assert np.array_equal(got, want) and got_states == want_states


# -- keyed permutations ------------------------------------------------------

def test_key_hex_round_trip():
    key = StegoKey.from_hex("ACE1")
    assert key.seed == 0xACE1
    assert key.hex == "ACE1"
    with pytest.raises(ValueError):
        StegoKey.from_hex("0000")
    with pytest.raises(ValueError):
        StegoKey.from_hex("XYZ1")
    with pytest.raises(ValueError):
        StegoKey.from_hex("ACE10")
    for lax in ("0x1F", " 1F ", "+01F", "1_2F", "\u0661\u0662\u0663\u0664", "ACE1\n"):
        with pytest.raises(ValueError):
            StegoKey.from_hex(lax)
    with pytest.raises(ValueError):
        StegoKey(0)


def test_permutation_is_bijection_with_inverse():
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    for i in (0, 1, 7):
        perm = sched.permutation(i)
        assert sorted(perm) == list(range(32))
        inv = np.argsort(perm).tolist()
        assert tuple(inv[p] for p in perm) == tuple(range(32))


def test_permutation_deterministic_and_random_access():
    key = StegoKey.from_hex("1234")
    a = KeySchedule(key)
    b = KeySchedule(key)
    seq = [a.permutation(i) for i in range(10)]
    assert b.permutation(7) == seq[7]       # random access equals sequential
    assert b.permutation(2) == seq[2]       # replay backwards is consistent
    assert a.permutation(7) == seq[7]
    assert a.symbol_counter >= 10
    assert a.lfsr_state != 0


def test_permutations_differ_across_indices_and_keys():
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    perms = {sched.permutation(i) for i in range(200)}
    assert len(perms) == 200
    other = KeySchedule(StegoKey.from_hex("ACE2"))
    assert other.permutation(0) != sched.permutation(0)


def test_permutation_position_image_uniform():
    # image of position 0 over 1e4 symbol indices of one key
    sched = KeySchedule(StegoKey.from_hex("7D3B"))
    counts = [0] * 32
    for i in range(10_000):
        counts[sched.permutation(i)[0]] += 1
    expected = 10_000 / 32
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT_31_P99


# -- embed / extract ---------------------------------------------------------

def test_embed_identity_permutation_flips_base_pattern():
    identity = tuple(range(32))
    out = embed_with_permutation(map_symbol(0), 0, identity)
    assert out == map_symbol(0).flip([0, 1, 2, 3, 4])


def test_embed_weight_is_five_for_all_pairs():
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    for carrier_symbol in range(16):
        carrier = map_symbol(carrier_symbol)
        for e in range(16):
            out = embed(carrier, e, sched, carrier_symbol * 16 + e)
            assert hamming(out, carrier) == 5


def test_embed_rejects_non_standard_carrier():
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    bad = map_symbol(0).flip([0])
    with pytest.raises(InvalidCarrierError):
        embed(bad, 0, sched, 0)
    with pytest.raises(ValueError):
        embed(map_symbol(0), 16, sched, 0)


def test_carrier_still_decodes_after_embedding():
    rnd = random.Random(5)
    for _ in range(3):
        sched = KeySchedule(StegoKey(rnd.randrange(1, 65536)))
        for c in range(16):
            for e in range(16):
                out = embed(map_symbol(c), e, sched, rnd.randrange(50))
                assert decode_chips(out) == (c, 5)


def test_extract_round_trip_noiseless():
    rnd = random.Random(9)
    for _ in range(3):
        key = StegoKey(rnd.randrange(1, 65536))
        tx = KeySchedule(key)
        rx = KeySchedule(key)
        for i in range(3):
            for c in range(16):
                for e in range(16):
                    out = embed(map_symbol(c), e, tx, i)
                    assert extract(out, rx, i) == (e, True, 5)


def test_extract_clean_code_reports_empty_diff():
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    result = extract(map_symbol(11), sched, 0)
    assert result.exact is False
    assert result.weight == 0


def oracle_extract(word, perm):
    # scalar reference: nearest code by a loop, unpermute the diff chips,
    # least symmetric difference with each pattern's position mask
    codes = [c.word for c in standard_code_set()]
    dists = [(word ^ c).bit_count() for c in codes]
    diff = word ^ codes[dists.index(min(dists))]
    observed = sum(1 << p for p in range(32) if diff >> perm[p] & 1)
    sym = [(observed ^ mask).bit_count() for mask in build_codebook().masks]
    return sym.index(min(sym)), min(sym) == 0, diff.bit_count()


def test_extraction_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    key = StegoKey.from_hex("5A5A")
    n = 600
    words = encode_stream(
        rng.integers(0, 2, 4 * n, dtype=np.uint8), rng.integers(0, 2, 4 * n, dtype=np.uint8),
        key, 1.0,
    )
    noisy = np.concatenate((
        words ^ pack_chips(rng.random((n, 32)) < 0.06),  # mostly 4-7 diff chips
        rng.integers(0, 1 << 32, 200, dtype=np.uint32),  # far from every pattern: ties
    ))
    decoded = decode_stream(noisy, key, 1.0)
    symbols = bits_to_symbols(decoded.stego_bits)
    sched = KeySchedule(key)
    for i, word in enumerate(noisy.tolist()):
        perm = sched.permutation(i)
        want = oracle_extract(word, perm)
        assert (symbols[i], decoded.slots[i].exact, decoded.slots[i].weight) == want
        assert extract_with_permutation(ChipSequence(word), perm) == want


def test_extract_survives_one_extra_flip():
    rnd = random.Random(17)
    key = StegoKey.from_hex("BEEF")
    tx = KeySchedule(key)
    rx = KeySchedule(key)
    recovered = 0
    trials = 10_000
    for n in range(trials):
        i = rnd.randrange(500)
        c = rnd.randrange(16)
        e = rnd.randrange(16)
        out = embed(map_symbol(c), e, tx, i).flip([rnd.randrange(32)])
        if extract(out, rx, i).symbol == e:
            recovered += 1
    assert recovered / trials > 0.9


def test_flip_positions_uniform_over_random_keys():
    # every chip position should be hit at the constant 5/32 rate
    rnd = random.Random(31)
    counts = [0] * 32
    n_symbols = 10_000
    for _ in range(20):
        sched = KeySchedule(StegoKey(rnd.randrange(1, 65536)))
        for i in range(n_symbols // 20):
            perm = sched.permutation(i)
            carrier = map_symbol(rnd.randrange(16))
            out = embed_with_permutation(carrier, rnd.randrange(16), perm)
            for p, flipped in enumerate(ChipSequence(carrier.word ^ out.word).chips):
                counts[p] += flipped
    expected = n_symbols * 5 / 32
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT_31_P99
