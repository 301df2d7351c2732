import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsss_stego
from dsss_stego import stego
from dsss_stego.channel import ChannelParams, make_rng, transmit_stream
from dsss_stego.chipmap import (
    ChipSequence,
    code_matrix,
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
    InvalidCarrierError,
    KeySchedule,
    StegoKey,
    _basis,
    _SPAN,
    build_codebook,
    embed,
    embed_words,
    embedding_schedule,
    extract,
    permutation_stream,
)

from test_golden import fixed_bits, oracle_bits, stream_bits

# df=31 chi-square critical value at the 1% significance level
CHI2_CRIT_31_P99 = 52.1914


def test_colex_walk_matches_enumeration_oracle():
    # independent oracle: enumerate all 5-subsets and sort colexicographically
    subs = sorted(combinations(range(32), 5), key=lambda s: s[::-1])  # largest element first
    assert len(subs) == math.comb(32, 5)
    assert list(stego._colex_masks(5, 32)) == [sum(1 << p for p in s) for s in subs]
    assert list(stego._colex_masks(3, 3)) == [0b111]
    assert list(stego._colex_masks(2, 3)) == [0b011, 0b101, 0b110]


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
    bits = stream_bits(0x0001, PRIMARY_TAPS, 100_000 + 32)
    ones = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    assert (ones[32:] - ones[:-32] > 0).all()
    with pytest.raises(ValueError):
        stego._stream_bytes(0, PRIMARY_TAPS, 8)


def test_lfsr_deterministic():
    a = stream_bits(0xBEEF, PRIMARY_TAPS, 256)
    b = stream_bits(0xBEEF, PRIMARY_TAPS, 256)
    assert (a == b).all()


def test_lfsr_pair_keystream():
    def combined(seed_a, seed_b):
        return stream_bits(seed_a, PRIMARY_TAPS, 1024) ^ stream_bits(seed_b, SECONDARY_TAPS, 1024)

    words = combined(0xDEADBEEF, 0x12345678)
    assert (words == combined(0xDEADBEEF, 0x12345678)).all()
    _, a, b = permutation_stream(0xDEADBEEF, 0x12345678, np.arange(64))
    assert a != 0 and b != 0
    # combined stream differs from either component stream
    assert (words != stream_bits(0xDEADBEEF, PRIMARY_TAPS, 1024)).any()
    with pytest.raises(ValueError):
        permutation_stream(0, 1, np.arange(1))


def test_keystream_memory_bounded():
    # the cursor keeps one block, not a state per symbol generated so far:
    # about 10 bytes per symbol walked at most, with the cached basis built first
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    sched.permutation(0)
    tracemalloc.start()
    try:
        for i in range(20_000):
            sched.permutation(i)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sched.symbol_counter >= 20_000
    assert retained < 200 << 10


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
        assert stream_bits(seed, taps, count).tolist() == want[:count]


@pytest.mark.parametrize("taps", [PRIMARY_TAPS, SECONDARY_TAPS])
@pytest.mark.parametrize("seed", [0x1, 0xACE1531E, 0xFFFFFFFF])
def test_register_state_read_from_the_span_ints(seed, taps):
    # permutation_stream reads the states a stretch ends at as span[pos // _SPAN] >> pos % _SPAN:
    # int k holds 32 bits past its span, so a state that straddles two spans is read from one
    positions = (0, _SPAN - 32, _SPAN - 1, _SPAN, 3 * _SPAN + 5)
    spans = stego._spans(seed, taps, (max(positions) + 32) // 8)
    assert len(spans) == 4 and all(span < 1 << (_SPAN + 32) for span in spans)
    want = oracle_bits(seed, taps, max(positions) + 32)
    for pos in positions:
        state = spans[pos // _SPAN] >> pos % _SPAN & 0xFFFFFFFF
        assert state == sum(bit << k for k, bit in enumerate(want[pos : pos + 32])), pos
    assert spans[0] & 0xFFFFFFFF == seed  # position 0: the seed itself


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
    want, *want_states = permutation_stream(*states, np.arange(5))
    monkeypatch.setattr(stego, "BLOCK_WORDS", 1)
    monkeypatch.setattr(stego, "_MEAN_BITS", -400)
    spans, walk, streams, walked = stego._spans, stego._walk, [], []

    def counted_spans(*args):
        streams.append(args)
        assert len(streams) < 100, "the stretch never grows"
        return spans(*args)

    def recorded_walk(*args):
        result = walk(*args)
        walked.append(result[0])
        return result

    monkeypatch.setattr(stego, "_spans", counted_spans)
    monkeypatch.setattr(stego, "_walk", recorded_walk)
    got, *got_states = permutation_stream(*states, np.arange(5))
    assert walked[0] == 0
    assert np.array_equal(got, want) and got_states == want_states


def test_short_first_stretch_makes_few_streams(monkeypatch):
    # the same undersized first stretch: the slack doubles until a permutation
    # fits, a few stretches of two register streams each
    states = stego.key_registers(StegoKey.from_hex("ACE1"))
    want = permutation_stream(*states, np.arange(5))
    monkeypatch.setattr(stego, "BLOCK_WORDS", 1)
    monkeypatch.setattr(stego, "_MEAN_BITS", -400)
    spans, made = stego._spans, []

    def counted(*args):
        made.append(args)
        assert len(made) < 40, "the stretch never grows"
        return spans(*args)

    monkeypatch.setattr(stego, "_spans", counted)
    got = permutation_stream(*states, np.arange(5))
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


@pytest.mark.parametrize(
    "rows",
    [[2, 8, 5], [-1, 3], [[0, 1], [2, 3]], [0.0, 1.0], [False, True]],
    ids=["decreasing", "negative", "2-D", "float", "bool"],
)
def test_permutation_stream_rejects_malformed_rows(rows):
    with pytest.raises(ValueError, match="rows"):
        permutation_stream(*stego.key_registers(StegoKey.from_hex("ACE1")), np.array(rows))


def test_permutation_stream_repeats_duplicate_rows():
    states = stego.key_registers(StegoKey.from_hex("ACE1"))
    rows = np.array([0, 0, 3, 3, 3, 9], dtype=np.uint16)
    whole, *after = permutation_stream(*states, np.arange(10))
    got, *got_after = permutation_stream(*states, rows)
    assert np.array_equal(got, whole[rows]) and got_after == after


@pytest.mark.parametrize("short", [False, True], ids=["stretches", "short-stretches"])
def test_continuing_from_the_returned_states_equals_one_call(monkeypatch, short):
    # the states after 1, 4095, 4096 and 4097 rows: inside, at and past a whole stretch of
    # BLOCK_WORDS permutations; the short stretches are the forced ones of the tests above
    states = stego.key_registers(StegoKey.from_hex("ACE1"))
    total = 4100
    if short:
        monkeypatch.setattr(stego, "BLOCK_WORDS", 1)
        monkeypatch.setattr(stego, "_MEAN_BITS", -400)
    whole, *after = permutation_stream(*states, np.arange(total))
    for first in (1, 4095, 4096, 4097):
        head, *middle = permutation_stream(*states, np.arange(first))
        tail, *end = permutation_stream(*middle, np.arange(total - first))
        assert np.array_equal(np.concatenate((head, tail)), whole), first
        assert end == after, first


# -- the rejection walk as an automaton ---------------------------------------

# (window bound, draw width) of each Fisher-Yates swap i = 31..1: a w-bit draw
# is the top w bits of a 5-bit stream window, rejected above i (no modulo bias)
REFERENCE_DRAWS = tuple(
    (((i + 1) << (5 - i.bit_length())) - 1, i.bit_length()) for i in range(31, 0, -1)
)


def reference_walk(windows: bytes, count: int) -> tuple[int, int, bytearray]:
    """The window loop the automaton replaced: how many of up to `count` permutations
    fit, the stream position after them and their accepted windows, 31 each.
    windows[p] holds bits p..p+4, MSB first."""
    accepted = bytearray()
    append, pos, start = accepted.append, 0, 0
    try:
        for done in range(count):
            start = pos
            for bound, width in REFERENCE_DRAWS:
                j = windows[pos]
                pos += width
                while j > bound:
                    j = windows[pos]
                    pos += width
                append(j)
    except IndexError:  # past the windows: drop the partial permutation
        del accepted[len(REFERENCE_DRAWS) * done :]
        return done, start, accepted
    return count, pos, accepted


def stream_windows(bits: np.ndarray) -> bytes:
    # windows[p] = bits p..p+4, MSB first, for every p < len(bits); 4 zero bits pad the end
    padded = np.concatenate((bits, np.zeros(4, np.uint8)))
    windows = np.zeros(len(bits), np.uint8)
    for k in range(5):
        windows = windows << 1 | padded[k : k + len(bits)]
    return windows.tobytes()


# about 21.5 bytes a permutation: most random streams end inside one, at any bit
# of a byte, and many counts ask for more permutations than the stream holds;
# short arbitrary bytes add the degenerate streams (all zeros, all ones, ...)
random_bytes = st.builds(
    lambda seed, size: np.random.default_rng(seed).bytes(size),
    st.integers(0, 2**32 - 1),
    st.integers(0, 900),
)
streams = st.one_of(st.binary(max_size=200), random_bytes)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(stream=streams, count=st.integers(0, 45))
def test_automaton_walk_equals_reference_walk(stream, count):
    # A draw that reads the zero padding ends its permutation's walk: the next
    # draw starts past the windows.  The last draw is 1 bit wide, so a
    # permutation the reference keeps reads no padding.
    bits = np.unpackbits(np.frombuffer(stream, np.uint8))  # the walk reads each byte MSB first
    want = reference_walk(stream_windows(bits), count)
    done, pos, ends = stego._walk(stream, count)
    assert (done, pos) == want[:2] and pos <= len(bits)
    assert ends.dtype == np.int32 and ends.shape == (done, len(REFERENCE_DRAWS))
    widths = np.array([width for _, width in REFERENCE_DRAWS], np.uint8)
    draws = np.frombuffer(want[2], np.uint8).reshape(done, len(REFERENCE_DRAWS)) >> (5 - widths)
    assert np.array_equal(stego._draws(stream + b"\0", ends), draws)


def oracle_draws(stream: bytes, ends: np.ndarray) -> list[list[int]]:
    """Each draw read bit by bit, MSB first: the w bits that end at its end, w its swap's width."""
    bits = "".join(f"{b:08b}" for b in stream)
    widths = [i.bit_length() for i in range(31, 0, -1)]
    return [[int(bits[e - w + 1 : e + 1], 2) for e, w in zip(row, widths)] for row in ends.tolist()]


@pytest.mark.parametrize("seed", range(6))
def test_draws_equal_reading_the_bits_one_at_a_time(seed):
    # random streams and ends; every draw ends at bit 4 or later, and the stream holds a byte
    # past the last end's, as permutation_stream's does
    rng = np.random.default_rng(seed)
    stream = rng.bytes(int(rng.integers(3, 300)))
    last = 8 * len(stream) - 9  # the last end: its 16-bit window is the last two bytes
    ends = rng.integers(4, last + 1, size=(int(rng.integers(2, 40)), 31), dtype=np.int32)
    ends[0, :2] = (4, last)  # 5-bit draws: the first end and the last
    ends[1, :2] = (8 * rng.integers(1, len(stream) - 1) + 1, 7)  # over a byte edge, inside one
    assert np.array_equal(stego._draws(stream, ends), oracle_draws(stream, ends))
    assert stego._draws(stream, ends).dtype == np.uint8


def test_automaton_tables():
    table, ends = stego._automaton()
    assert len(table) <= 256  # a state fits a byte
    assert len(table) == 247  # for the 31 draws of a 32-chip shuffle
    assert all(type(row) is bytes and len(row) == 256 for row in table)
    assert max(map(max, table)) < len(table)
    assert ends.dtype == np.uint8 and ends.shape == (len(table) * 256,)
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {after for state in frontier for after in table[state]} - reached
        reached |= frontier
    assert reached == set(range(len(table)))


def test_automaton_lazy_and_small():
    # a fresh interpreter: importing builds no table, the first walk builds it,
    # the build peaks at 256 KiB and the tables keep under 192 KiB
    script = """
import json, sys, tracemalloc
import numpy as np
from dsss_stego import stego
at_import = stego._automaton.cache_info().currsize
tracemalloc.start()
table, ends = stego._automaton()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
stego._automaton.cache_clear()
stego.slot_permutations(stego.StegoKey.from_hex("ACE1"), np.arange(3))
print(json.dumps({
    "at_import": at_import, "after_walk": stego._automaton.cache_info().currsize, "peak": peak,
    "bytes": sys.getsizeof(table) + sum(map(sys.getsizeof, table)) + ends.nbytes}))
"""
    src = str(Path(dsss_stego.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    info = json.loads(out.stdout)
    assert info["at_import"] == 0 and info["after_walk"] == 1
    assert info["peak"] <= 256 * 1024
    assert info["bytes"] < 192 * 1024


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


def test_key_takes_a_numpy_integer_as_an_int():
    # kept as np.uint16, seed << 16 would wrap in the register seeds
    key = StegoKey(np.uint16(7))
    assert type(key.seed) is int and key == StegoKey(7)
    assert (embedding_schedule(key, 0.5, 64) == embedding_schedule(StegoKey(7), 0.5, 64)).all()
    assert KeySchedule(key).permutation(3) == KeySchedule(StegoKey(7)).permutation(3)


def test_key_rejects_a_float():
    with pytest.raises(ValueError, match=re.escape("seed must be an integer, got 1.5")):
        StegoKey(1.5)


def test_key_rejects_a_bool():
    with pytest.raises(ValueError, match=re.escape("seed must be an integer, got True")):
        StegoKey(True)


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
    identity = np.arange(32, dtype=np.uint8)[None]
    out = embed_words(np.array([map_symbol(0).word], np.uint32), np.array([0]), identity)
    assert ChipSequence(int(out[0])) == map_symbol(0).flip([0, 1, 2, 3, 4])


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
    for symbol in (16, -1):
        with pytest.raises(ValueError, match=f"stego symbol out of range: {symbol}"):
            embed(map_symbol(0), symbol, sched, 0)


@pytest.mark.parametrize("value", [1.5, True, np.bool_(False), "3"])
def test_scalar_calls_reject_non_integer_arguments(value):
    # a float or a bool used to reach numpy as an index: an IndexError, or a boolean mask
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    with pytest.raises(ValueError, match="stego_symbol must be an integer"):
        embed(map_symbol(0), value, sched, 0)
    with pytest.raises(ValueError, match="symbol_index must be an integer"):
        embed(map_symbol(0), 3, sched, value)
    with pytest.raises(ValueError, match="symbol_index must be an integer"):
        extract(map_symbol(0), sched, value)
    with pytest.raises(ValueError, match="symbol_index must be an integer"):
        sched.permutation(value)


def test_scalar_calls_take_numpy_integers():
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    out = embed(map_symbol(2), np.uint8(9), sched, np.int64(40))
    assert out == embed(map_symbol(2), 9, sched, 40)
    assert extract(out, sched, np.uint16(40)) == (9, True, 5)
    assert sched.permutation(np.int32(40)) == sched.permutation(40)


@pytest.mark.parametrize("rate", [0.0, 0.37, 1.0])
def test_schedule_length_must_be_an_integer(rate):
    # True was read as one symbol at a fractional rate, and 3.0 failed with a TypeError
    key = StegoKey.from_hex("ACE1")
    for value in (True, 3.0):
        with pytest.raises(ValueError, match="num_symbols must be an integer"):
            embedding_schedule(key, rate, value)
    want = embedding_schedule(key, rate, 3).tolist()
    assert embedding_schedule(key, rate, np.int64(3)).tolist() == want


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
        assert extract(ChipSequence(word), sched, i) == want


def test_read_table_equals_oracle_on_every_read_word():
    # a read word covers the 14 chips of the codebook span: every one of its 2^14 values,
    # against the least symmetric difference with each mask, ties to the lowest symbol
    masks = build_codebook().masks
    span = max(masks).bit_length()
    want = []
    for word in range(1 << span):
        distances = [(word ^ mask).bit_count() for mask in masks]
        want.append(min(distances) << 4 | distances.index(min(distances)))
    read = stego._read_keys()
    assert (span, read.dtype) == (14, np.uint16)
    assert read.tolist() == want


def test_encoding_leaves_the_read_keys_unbuilt():
    # only extraction reads the 16 384 read keys, so an encode alone does not build them
    stego._mask_table.cache_clear()
    stego._read_keys.cache_clear()
    key = StegoKey.from_hex("ACE1")
    words = encode_stream(fixed_bits("data", 400), fixed_bits("stego", 400), key, 1.0)
    assert stego._mask_table.cache_info().currsize == 1
    assert stego._read_keys.cache_info().currsize == 0
    assert np.array_equal(decode_stream(words, key, 1.0).stego_bits, fixed_bits("stego", 400))
    assert stego._read_keys.cache_info().currsize == 1


@pytest.mark.parametrize("rows, columns", [(1, 32), (3, 32), (2, 5), (2, 31)])
def test_embed_and_extract_need_one_32_chip_permutation_a_word(rows, columns):
    # one row used to broadcast over both words, and (n, 5) gave a bare broadcast error
    perms = slot_permutations(StegoKey.from_hex("ACE1"), np.arange(3))
    bad = np.ascontiguousarray(np.resize(perms, (rows, 32))[:, :columns])
    words, symbols = code_matrix()[[3, 9]], np.array([4, 11])
    with pytest.raises(ValueError, match=r"perms must be \(2, 32\)"):
        embed_words(words, symbols, bad)
    with pytest.raises(ValueError, match=r"perms must be \(2, 32\)"):
        stego.extract_diffs(np.array([0x1F, 0x3E0], np.uint32), bad)
    embedded = embed_words(words, symbols, perms[:2])
    assert stego.extract_diffs(embedded ^ words, perms[:2])[0].tolist() == [4, 11]


# The covert symbols and slot records of a rate-1 stream of 20 000 symbols after a -2 dB
# channel, where most slots fall back: taken while each slot was searched over the 16 masks.
EXTRACT_PIN = "3e9c3fffa0d90d8ac9e857524feceb3927b0420d9187026720ee8381c6aecd41"


def test_noisy_extraction_pinned():
    n, key = 20_000, StegoKey.from_hex("ACE1")
    words = encode_stream(fixed_bits("data", 4 * n), fixed_bits("stego", 4 * n), key, 1.0)
    noisy, _ = transmit_stream(words, ChannelParams.from_snr_db(-2), make_rng(2011))
    decoded = decode_stream(noisy, key, 1.0)
    assert decoded.slots.exact.sum() < n // 50
    digest = hashlib.sha256(decoded.stego_bits.tobytes() + decoded.slots.tobytes()).hexdigest()
    assert digest == EXTRACT_PIN


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
            carrier = map_symbol(rnd.randrange(16))
            out = embed(carrier, rnd.randrange(16), sched, i)
            for p, flipped in enumerate(ChipSequence(carrier.word ^ out.word).chips):
                counts[p] += flipped
    expected = n_symbols * 5 / 32
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT_31_P99
