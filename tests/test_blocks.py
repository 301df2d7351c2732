"""Per-word tables built one block of words at a time.

The channel draw, despreading, embedding and extraction each loop over
``chipmap.BLOCK_WORDS`` words, and the keyed permutation walk over stretches
of up to as many permutations, keeping only the rows asked for.  Their
outputs must equal the one-shot forms kept here as oracles, at lengths on
either side of the block edges, and their working memory must not grow with
the stream beyond their results.
"""

import functools
import json
import operator
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dsss_stego
from dsss_stego import channel, chipmap, cli, pipeline, stego
from dsss_stego.channel import ChannelParams, make_rng, transmit_stream
from dsss_stego.chipmap import BLOCK_WORDS, CHIPS_PER_SYMBOL, code_matrix, despread_stream, pack_chips
from dsss_stego.pipeline import (
    DecodedStream,
    SimConfig,
    decode_stream,
    encode_stream,
    run_simulation,
    run_simulations,
    slot_permutations,
)
from dsss_stego.stego import (
    StegoKey,
    build_codebook,
    embed_words,
    embedding_schedule,
    extract_diffs,
    key_registers,
    permutation_stream,
)

LENGTHS = (0, 1, BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1, 2 * BLOCK_WORDS + 3)


def random_perms(rng, n):
    rows = np.tile(np.arange(CHIPS_PER_SYMBOL, dtype=np.uint8), (n, 1))
    return rng.permuted(rows, axis=1)


def whole_pattern_table(perms):
    # every slot's 16 placed patterns at once: (n, 32) chip bits, 5 column gathers ORed
    chip_bits = np.uint32(1) << perms.astype(np.uint32)
    columns = np.array(build_codebook().patterns).T
    return functools.reduce(operator.ior, (chip_bits.take(column, axis=1) for column in columns))


def test_block_is_4096_words():
    assert BLOCK_WORDS == 4096


@pytest.mark.parametrize("n", LENGTHS)
def test_transmit_equals_one_draw(n):
    # the same words, flip count and generator state after it as one (N, 32) draw
    words = np.random.default_rng(n).integers(0, 1 << 32, n, dtype=np.uint32)
    p, blocked, whole = 0.1, make_rng(5), make_rng(5)
    flips = pack_chips(whole.random((n, CHIPS_PER_SYMBOL)) < p)
    out, count = transmit_stream(words, ChannelParams(p), blocked)
    assert out.dtype == np.uint32
    assert np.array_equal(out, words ^ flips)
    assert count == int(np.bitwise_count(flips).sum())
    assert blocked.random() == whole.random()


PART_LENGTHS = (0, 1, 4095, 4096, 8191, 8192, 8193, 3 * BLOCK_WORDS + 1, 100_000)


def _buffered_rng(seed, bit_generator=np.random.PCG64):
    # three uint8 draws take one uint32, which leaves the other half of a
    # 64-bit output buffered in the state, the part that advance() clears
    rng = np.random.Generator(bit_generator(seed))
    rng.integers(0, 2, 3, dtype=np.uint8)
    return rng


def _recorded_blocks(monkeypatch, cores):
    # (address of its first flip, length, thread) of every block drawn, and the
    # thread count of every call, forced to min(cores, blocks)
    monkeypatch.setattr(channel, "_usable_cores", lambda: cores)
    blocks, counts = [], []
    draw_block, draw_blocks = channel._draw_block, channel._draw_blocks

    def recorded_block(flips, *args):
        blocks.append((flips.__array_interface__["data"][0], len(flips), threading.get_ident()))
        draw_block(flips, *args)

    def recorded_blocks(flips, rng, p_chip, count):
        counts.append(count)
        draw_blocks(flips, rng, p_chip, count)

    monkeypatch.setattr(channel, "_draw_block", recorded_block)
    monkeypatch.setattr(channel, "_draw_blocks", recorded_blocks)
    return blocks, counts


def _held_blocks(monkeypatch, count):
    # each thread holds its first block until all `count` threads hold one, so
    # every thread draws; a thread that never comes breaks the barrier and the call
    barrier, seen, draw_block = threading.Barrier(count, timeout=30), set(), channel._draw_block

    def held(flips, *args):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        draw_block(flips, *args)

    monkeypatch.setattr(channel, "_draw_block", held)


def _assert_one_draw(words, rng, reference):
    # the words, flip count, full generator state and next double of one (N, 32) draw
    hits = reference.random((len(words), CHIPS_PER_SYMBOL)) < 0.1
    out, count = transmit_stream(words, ChannelParams(0.1), rng)
    assert np.array_equal(out, words ^ pack_chips(hits))
    assert count == int(hits.sum())
    np.testing.assert_equal(rng.bit_generator.state, reference.bit_generator.state)
    assert rng.random() == reference.random()


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("n", PART_LENGTHS)
def test_threaded_transmit_equals_one_draw(monkeypatch, cores, n):
    words = np.random.default_rng(n).integers(0, 1 << 32, n, dtype=np.uint32)
    rng, reference = _buffered_rng(n), _buffered_rng(n)
    assert rng.bit_generator.state["has_uint32"] == 1
    blocks, counts = _recorded_blocks(monkeypatch, cores)
    _assert_one_draw(words, rng, reference)
    assert counts == [max(1, min(cores, n // BLOCK_WORDS))]
    blocks.sort()  # by the address of the first flip: in stream order
    starts = [start for start, _, _ in blocks]
    assert starts == [starts[0] + 4 * k * BLOCK_WORDS for k in range(len(blocks))]
    assert [length for _, length, _ in blocks] == [
        min(BLOCK_WORDS, n - start) for start in range(0, n, BLOCK_WORDS)
    ]
    threads = {thread for _, _, thread in blocks}
    assert len(threads) <= counts[0]
    if counts[0] == 1:
        assert threads <= {threading.get_ident()}


def test_every_thread_draws_under_fast_thread_switching(monkeypatch):
    # more threads than cores, each made to draw, switched every microsecond
    n = 8 * BLOCK_WORDS + 5
    blocks, counts = _recorded_blocks(monkeypatch, 8)
    _held_blocks(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_one_draw(np.zeros(n, dtype=np.uint32), _buffered_rng(9), _buffered_rng(9))
    finally:
        sys.setswitchinterval(interval)
    assert counts == [8] and len(blocks) == 9
    assert len({thread for _, _, thread in blocks}) == 8


def test_other_bit_generators_take_one_thread(monkeypatch):
    # MT19937 has no advance(): its blocks are drawn in order, in the calling thread
    n = 3 * BLOCK_WORDS
    words = np.random.default_rng(n).integers(0, 1 << 32, n, dtype=np.uint32)
    blocks, counts = _recorded_blocks(monkeypatch, 4)
    _assert_one_draw(
        words, _buffered_rng(4, np.random.MT19937), _buffered_rng(4, np.random.MT19937)
    )
    assert counts == [1]
    assert [(length, thread) for _, length, thread in blocks] == [
        (BLOCK_WORDS, threading.get_ident())
    ] * 3


class _BlockFailed(BaseException):
    pass


@pytest.mark.parametrize(
    "in_caller, error", [(False, RuntimeError), (True, RuntimeError), (False, _BlockFailed)]
)
def test_failed_block_raises_after_every_thread_is_joined(monkeypatch, in_caller, error):
    # a block that raises, in a worker or in the calling thread, fails the call:
    # no words come back with flips left unset, and no thread outlives it
    monkeypatch.setattr(channel, "_usable_cores", lambda: 4)
    caller, draw_block = threading.get_ident(), channel._draw_block

    def failing(flips, *args):
        if (threading.get_ident() == caller) == in_caller:
            raise error("block failed")
        draw_block(flips, *args)

    monkeypatch.setattr(channel, "_draw_block", failing)
    _held_blocks(monkeypatch, 4)  # 4 blocks, one for each thread
    threads = threading.active_count()
    with pytest.raises(error, match="block failed"):
        transmit_stream(np.zeros(4 * BLOCK_WORDS, np.uint32), ChannelParams(0.1), make_rng(1))
    assert threading.active_count() == threads


@pytest.mark.parametrize("n", LENGTHS)
def test_despread_equals_one_table(n):
    rng = np.random.default_rng(n)
    one_flip = np.uint32(1) << rng.integers(0, CHIPS_PER_SYMBOL, n, dtype=np.uint32)
    near = code_matrix()[rng.integers(0, 16, n)] ^ one_flip
    far = rng.integers(0, 1 << 32, n, dtype=np.uint32)  # distance ties go to the lowest symbol
    words = np.where(rng.random(n) < 0.5, near, far)
    want = np.bitwise_count(words[:, None] ^ code_matrix()).argmin(axis=1)
    got = despread_stream(words)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


TIE_LENGTHS = (1, 50, BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1)


def halfway(a, b):
    # a with the lower half of the chips where a and b differ flipped: as near to b as to a
    differ = ((a ^ b)[:, None] >> np.arange(CHIPS_PER_SYMBOL, dtype=np.uint32)) & 1
    lower_half = np.cumsum(differ, axis=1) <= differ.sum(axis=1, keepdims=True) // 2
    return a ^ pack_chips(differ & lower_half)


def two_indices(rng, n):
    first = rng.integers(0, 16, n)
    return first, (first + rng.integers(1, 16, n)) % 16  # a second, different index


def tied_rows(distances):
    return np.count_nonzero((distances == distances.min(axis=1, keepdims=True)).sum(axis=1) > 1)


@pytest.mark.parametrize("n", TIE_LENGTHS)
@pytest.mark.parametrize("kind", ["random", "halfway"])
def test_despread_ties_go_to_the_lowest_symbol(kind, n):
    rng = np.random.default_rng(n)
    codes = code_matrix()
    if kind == "random":  # ties between codes are common
        words = rng.integers(0, 1 << 32, n, dtype=np.uint32)
    else:
        a, b = two_indices(rng, n)
        words = halfway(codes[a], codes[b])
    distances = np.bitwise_count(words[:, None] ^ codes)
    assert n < 50 or tied_rows(distances) > n // 4
    assert np.array_equal(despread_stream(words), distances.argmin(axis=1))


@pytest.mark.parametrize("n", TIE_LENGTHS)
@pytest.mark.parametrize("kind", ["random", "halfway"])
def test_extract_ties_go_to_the_lowest_symbol(kind, n):
    rng = np.random.default_rng(n)
    perms = random_perms(rng, n)
    table = whole_pattern_table(perms)
    s, t = two_indices(rng, n)
    placed = table[np.arange(n), s]
    if kind == "random":  # ties between placed patterns are common
        diffs = rng.integers(0, 1 << 32, n, dtype=np.uint32)
    else:
        diffs = halfway(placed, table[np.arange(n), t])
    diffs = np.where(rng.random(n) < 0.25, placed, diffs)  # and some exact slots
    distances = np.bitwise_count(diffs[:, None] ^ table)
    assert n < 50 or tied_rows(distances) > n // 4
    symbols, exact, weight = extract_diffs(diffs, perms)
    assert np.array_equal(symbols, distances.argmin(axis=1))
    assert np.array_equal(exact, distances.min(axis=1) == 0)
    assert np.array_equal(weight, np.bitwise_count(diffs))


@pytest.mark.parametrize("n", LENGTHS)
def test_embed_equals_whole_pattern_table(n):
    rng = np.random.default_rng(n)
    words = rng.integers(0, 1 << 32, n, dtype=np.uint32)
    symbols = rng.integers(0, 16, n).astype(np.uint8)
    perms = random_perms(rng, n)
    want = words ^ whole_pattern_table(perms)[np.arange(n), symbols]
    got = embed_words(words, symbols, perms)
    assert got.dtype == np.uint32
    assert np.array_equal(got, want)
    assert np.array_equal(embed_words(words, symbols, perms.astype(np.int64)), want)


@pytest.mark.parametrize("n", LENGTHS)
def test_extract_equals_whole_pattern_table(n):
    rng = np.random.default_rng(n)
    perms = random_perms(rng, n)
    embedded = rng.integers(0, 16, n)
    clean = embed_words(np.zeros(n, np.uint32), embedded, perms)
    noise = np.uint32(1) << rng.integers(0, CHIPS_PER_SYMBOL, n).astype(np.uint32)
    diffs = np.where(rng.random(n) < 0.5, clean, clean ^ noise)  # exact and fallback slots
    # and a placed pattern with one more flip at a chip outside the codebook's span
    span = max(build_codebook().masks).bit_length()
    outside = perms[np.arange(n), rng.integers(span, CHIPS_PER_SYMBOL, n)].astype(np.uint32)
    widened = rng.random(n) < 0.25
    diffs = np.where(widened, clean ^ (np.uint32(1) << outside), diffs)
    distances = np.bitwise_count(diffs[:, None] ^ whole_pattern_table(perms))
    symbols, exact, weight = extract_diffs(diffs, perms)
    assert (symbols.dtype, exact.dtype) == (np.uint8, bool)
    assert np.array_equal(symbols, distances.argmin(axis=1))
    assert np.array_equal(exact, distances.min(axis=1) == 0)
    assert np.array_equal(weight, np.bitwise_count(diffs))
    assert np.array_equal(symbols[widened], embedded[widened])
    assert not exact[widened].any() and (weight[widened] == 6).all()


KEY = StegoKey.from_hex("ACE1")


@pytest.fixture(scope="module")
def whole_table():
    # every permutation up to offset 9000 in one walk, for the slot sets to gather from
    return permutation_stream(*key_registers(KEY), np.arange(9001))[0]


@pytest.mark.parametrize(
    "slots",
    [
        np.arange(0),
        np.array([9000]),
        np.arange(1, 9001, 2),
        np.arange(4095),
        np.arange(4096),
        np.arange(4097),
        np.arange(8195),
        np.array([0, 4095, 4096, 8191, 8192, 8193]),
    ],
    ids=["none", "9000", "odd", "4095", "4096", "4097", "8195", "edges"],
)
def test_slot_permutations_equal_whole_table_gather(whole_table, slots):
    got = slot_permutations(KEY, slots)
    assert got.shape == (slots.size, CHIPS_PER_SYMBOL) and got.dtype == np.uint8
    assert np.array_equal(got, whole_table[slots])


def test_rows_either_side_of_a_short_stretch(monkeypatch, whole_table):
    # undersized stretches end short of their count; the rows on either side of
    # each stretch end, up to the same last row, must keep their offsets
    monkeypatch.setattr(stego, "_MEAN_BITS", 100)
    monkeypatch.setattr(stego, "BLOCK_WORDS", 64)
    walk, walks = stego._walk, []

    def recorded_walk(windows, count):
        result = walk(windows, count)
        walks.append((count, result[0]))
        return result

    monkeypatch.setattr(stego, "_walk", recorded_walk)
    last = 700
    slot_permutations(KEY, np.array([last]))
    stretches, walks[:] = walks[:], []
    assert any(walked < count for count, walked in stretches)
    ends = np.cumsum([walked for _, walked in stretches])[:-1]
    slots = np.unique(np.concatenate((ends - 1, ends, [last])))
    assert np.array_equal(slot_permutations(KEY, slots), whole_table[slots])
    assert walks == stretches  # the same stretch ends: they depend on the last row only


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


N_WORDS = 100_000
MIB = 1 << 20


def test_transmit_peak_is_flat():
    # one (N, 32) float64 draw would be 25 MiB at this length
    words = np.zeros(N_WORDS, dtype=np.uint32)
    transmit_stream(words[:10], ChannelParams(0.1), make_rng(1))  # what a first call sets up, untraced
    assert _traced_peak(lambda: transmit_stream(words, ChannelParams(0.1), make_rng(1))) <= 2 * MIB


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_threaded_transmit_peak_is_flat(monkeypatch, cores):
    # the threads share one block's draw buffers, freed before the words are XORed
    monkeypatch.setattr(channel, "_usable_cores", lambda: cores)
    words = np.zeros(N_WORDS, dtype=np.uint32)
    transmit_stream(words[:10], ChannelParams(0.1), make_rng(1))
    assert _traced_peak(lambda: transmit_stream(words, ChannelParams(0.1), make_rng(1))) <= 2 * MIB


def test_despread_peak_is_flat():
    words = np.random.default_rng(1).integers(0, 1 << 32, N_WORDS, dtype=np.uint32)
    assert _traced_peak(lambda: despread_stream(words)) <= 1 * MIB


def test_guessed_despread_peak_is_flat():
    # at 0 dB most words keep their guess; the guess table is built inside the traced call
    sent = code_matrix()[np.random.default_rng(1).integers(0, 16, N_WORDS)]
    words, _ = transmit_stream(sent, ChannelParams.from_snr_db(0), make_rng(1))
    chipmap._guesses.cache_clear()
    assert _traced_peak(lambda: despread_stream(words)) <= 1 * MIB


def test_lookup_table_build_peak_is_small():
    # despreading's 64 KiB guess table and extraction's 32 KiB read keys are each built
    # 1024 words a call, from their caches cleared
    chipmap._guesses.cache_clear()
    stego._mask_table.cache_clear()
    stego._read_keys.cache_clear()
    assert _traced_peak(chipmap._guesses) <= MIB // 2
    assert _traced_peak(stego._read_keys) <= MIB // 2


def test_diag_out_peak_is_flat(tmp_path, monkeypatch):
    # the sidecar of 1e5 slots is 1.0 MiB; built whole as row strings it peaked at 16 MiB
    rng = np.random.default_rng(2)
    columns = 3 * np.arange(N_WORDS), rng.random(N_WORDS) < 0.5, rng.integers(0, 33, N_WORDS)
    slots = np.rec.fromarrays(columns, dtype=pipeline._SLOT_DTYPE)
    decoded = DecodedStream(np.zeros(8, np.uint8), np.zeros(0, np.uint8), slots)
    monkeypatch.setattr(cli, "read_chip_stream", lambda path: np.zeros(2, np.uint32))
    monkeypatch.setattr(cli, "decode_stream", lambda *args: decoded)
    diag = tmp_path / "diag.csv"
    argv = ["decode", "--in", "unread", "--key", "ACE1", "--embed-rate", "1",
            "--data-out", str(tmp_path / "data.out"), "--diag-out", str(diag)]
    assert cli.main(argv) == 0  # the parser is built untraced
    assert _traced_peak(lambda: cli.main(argv)) <= 2 * MIB
    rows = ["slot_index,exact,diff_weight"] + ["%d,%d,%d" % row for row in slots.tolist()]
    assert diag.read_bytes() == ("\n".join(rows) + "\n").encode()  # the same bytes as one join


def _replayed_walk_peak(monkeypatch, call, walked, want):
    # Under tracemalloc each Python int the walk makes is traced, which slows it
    # about 9x.  So the traced call replays the walks of an untraced one in
    # order, each array of draw ends copied so that its bytes still count.
    replay = iter(walked)

    def replayed(stream, count):
        done, pos, ends = next(replay)
        return done, pos, ends.copy()

    monkeypatch.setattr(stego, "_walk", replayed)
    got = []
    peak = _traced_peak(lambda: got.append(call()))
    assert next(replay, None) is None and np.array_equal(got[0], want)
    return peak


@pytest.fixture(scope="module")
def full_walk():
    # rate 1: every word is a slot; the permutations are derived untraced, and
    # the results of the walks they took are kept, in order, to be replayed
    walk, walked = stego._walk, []

    def recorded(windows, count):
        walked.append(walk(windows, count))
        return walked[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stego, "_walk", recorded)
        return slot_permutations(KEY, np.arange(N_WORDS)), walked


@pytest.fixture(scope="module")
def full_load(full_walk):
    perms = np.arange(N_WORDS), full_walk[0]
    rng = np.random.default_rng(3)
    data = rng.integers(0, 2, 4 * N_WORDS, dtype=np.uint8)
    stego = rng.integers(0, 2, 4 * N_WORDS, dtype=np.uint8)
    return KEY, perms, data, stego


def test_encode_peak_is_flat(full_load):
    # a (slots, 16) pattern table would be 6 MiB here, and its (slots, 32) chip bits 12 MiB
    key, perms, data, stego = full_load
    assert _traced_peak(lambda: encode_stream(data, stego, key, 1.0, perms=perms)) <= 4 * MIB


def test_decode_peak_is_flat(full_load):
    key, perms, data, stego = full_load
    words = encode_stream(data, stego, key, 1.0, perms=perms)
    assert _traced_peak(lambda: decode_stream(words, key, 1.0, perms=perms)) <= 4 * MIB


def test_slot_permutations_peak_is_the_result_and_one_stretch(monkeypatch, full_walk):
    # the (N, 32) result is 3.05 MiB; a whole-stream table peaked near 150 B a slot
    perms, walked = full_walk
    call = functools.partial(slot_permutations, KEY, np.arange(N_WORDS))
    assert _replayed_walk_peak(monkeypatch, call, walked, perms) <= 8 * MIB


def test_one_stretch_slot_permutations_peak_with_its_walk():
    # walked under tracemalloc: one stretch of stream bytes, its int32 draw ends,
    # a chunk of rows' draws and the 128 KiB result; a walk over 5-bit window
    # arrays, a byte per stream bit, peaked at 3.10 MiB here
    slot_permutations(KEY, np.arange(3))  # the walk's tables are built untraced
    rows = np.arange(BLOCK_WORDS)
    assert _traced_peak(lambda: slot_permutations(KEY, rows)) <= 3 * MIB


def test_half_load_slot_permutations_peak(monkeypatch, full_walk):
    # half the rows of the same stream, whose walk keeps only those
    perms, walked = full_walk
    slots = np.nonzero(embedding_schedule(KEY, 0.5, N_WORDS))[0]
    assert slots[-1] == N_WORDS - 1  # the same last row: the walk of rate 1, replayed
    call = functools.partial(slot_permutations, KEY, slots)
    assert _replayed_walk_peak(monkeypatch, call, walked, perms[slots]) <= 6 * MIB


def _simulation(rate):
    return SimConfig(N_WORDS, ChannelParams(0.05), KEY, rate, rng_seed=1)


def _rate1_text():
    return run_simulation(_simulation(1.0)).as_text()


@pytest.fixture(scope="module")
def rate1_peak(full_walk):
    # 9 004 036 B when run_simulation had its own body; a second (N, 32) table
    # would add 3.2 MB and a copy of the words 0.4 MB
    with pytest.MonkeyPatch.context() as patch:
        return _replayed_walk_peak(patch, _rate1_text, full_walk[1], _rate1_text())


def test_rate1_simulation_peak_is_one_table_and_its_streams(rate1_peak):
    assert rate1_peak <= 8.75 * MIB


def test_two_rate_simulations_peak_adds_only_the_smaller_rate_rows(
    monkeypatch, full_walk, rate1_peak
):
    # one walk for both: the rate-1 point reads the table as it is, the other its own rows
    configs = [_simulation(0.5), _simulation(1.0)]
    want = [run_simulation(config).as_text() for config in configs]
    peak = _replayed_walk_peak(
        monkeypatch, lambda: [r.as_text() for r in run_simulations(configs)], full_walk[1], want
    )
    rows = CHIPS_PER_SYMBOL * np.count_nonzero(embedding_schedule(KEY, 0.5, N_WORDS))
    assert peak <= rate1_peak + rows


def test_schedule_peak():
    # the 16 register bits a symbol are 1.5 MiB here; an (N, 16) uint32 matmul was 6 MiB
    embedding_schedule(KEY, 0.5, 10)  # the cached basis is built untraced
    assert _traced_peak(lambda: embedding_schedule(KEY, 0.5, N_WORDS)) <= 3 * MIB


def test_clean_simulation_of_1e6_symbols_max_rss():
    # a fresh interpreter, so the high-water mark belongs to this run alone
    script = """
import json, resource
import dsss_stego
from dsss_stego.channel import ChannelParams
def run(n):
    return dsss_stego.run_simulation(dsss_stego.SimConfig(
        num_symbols=n, channel=ChannelParams.from_snr_db(0.0),
        key=dsss_stego.StegoKey.from_hex("ACE1"), embed_rate=0.0, rng_seed=1))
run(1000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
report = run(1_000_000)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"grown_kb": after - before, "sent": report.symbols_sent}))
"""
    src = str(Path(dsss_stego.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    info = json.loads(out.stdout)
    assert info["sent"] == 1_000_000
    assert info["grown_kb"] < 64 * 1024
