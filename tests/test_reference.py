"""An independent reference simulator as the oracle of every report field.

``reference_report`` rebuilds a ``SimReport`` one symbol at a time from the
scalar API only: ``map_symbol`` spreads, ``embed`` and ``extract`` go through
a ``KeySchedule``, ``ChipSequence.flip`` applies the channel and
``decode_chips`` despreads.  It shares none of the pipeline's plumbing: not
its bit grouping, framing, blocks, tallies, threaded channel draw or guessed
despread.  It shares only the embed and extract kernels, which
``test_stego.py`` checks on their own (extraction against a scalar oracle).

The reference draws what the wire contract fixes: a random payload is one
``rng.integers(0, 2, 4n + 4S, uint8)`` draw (data first, then covert bits
for all S scheduled slots), and the channel then draws one uniform double
a chip, chip 0 of symbol 0 first, with no draw at ``p_chip`` 0.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dsss_stego import (
    ChannelParams,
    KeySchedule,
    SimConfig,
    SimReport,
    StegoKey,
    decode_chips,
    embed,
    embedding_schedule,
    extract,
    make_rng,
    map_symbol,
    run_simulation,
    run_simulations,
)
from dsss_stego.channel import GENERATOR_ID
from dsss_stego.chipmap import GUESS_WORDS

KEY = StegoKey.from_hex("ACE1")


def _symbols(bits) -> list[int]:
    """4 bits a symbol, first bit the MSB, by hand."""
    bits = [int(b) for b in bits]
    return [int("".join(map(str, bits[k : k + 4])), 2) for k in range(0, len(bits), 4)]


def reference_report(config: SimConfig) -> SimReport:
    """The report of one config, symbol by symbol through the scalar API."""
    n, rng = config.num_symbols, make_rng(config.rng_seed)
    slots = np.flatnonzero(embedding_schedule(config.key, config.embed_rate, n)).tolist()
    if config.data_bits is None:
        draw = rng.integers(0, 2, 4 * n + 4 * len(slots), dtype=np.uint8).tolist()
        data, covert = draw[: 4 * n], draw[4 * n :]
    else:
        data, covert = list(config.data_bits), list(config.stego_bits)
    whole = len(covert) // 4  # a zero-padded last group is sent but not counted
    covert_symbols = _symbols(covert + [0] * (-len(covert) % 4))
    assert len(covert_symbols) <= len(slots)
    sent_symbols = _symbols(data)
    schedule = KeySchedule(config.key)
    words = [map_symbol(s) for s in sent_symbols]
    for slot, symbol in zip(slots, covert_symbols):
        words[slot] = embed(words[slot], symbol, schedule, slot)
    p_chip, chip_errors = config.channel.p_chip, 0
    if p_chip:
        flips = rng.random((n, 32)) < p_chip
        chip_errors = int(flips.sum())
        words = [word.flip(np.flatnonzero(row).tolist()) for word, row in zip(words, flips)]
    got = [decode_chips(word).symbol for word in words]
    bit_errors = sum((a ^ b).bit_count() for a, b in zip(got, sent_symbols))
    reads = [extract(words[slot], schedule, slot) for slot in slots[:whole]]
    return SimReport(
        num_symbols=n,
        p_chip=p_chip,
        snr_db=config.channel.snr_db,
        embed_rate=config.embed_rate,
        key_hex=config.key.hex,
        rng_seed=config.rng_seed,
        payload_mode="random" if config.data_bits is None else "fixed",
        generator=GENERATOR_ID,
        chips_sent=32 * n,
        chip_errors=chip_errors,
        symbols_sent=n,
        symbol_errors=sum(a != b for a, b in zip(got, sent_symbols)),
        carrier_bit_errors=bit_errors,
        stego_symbols_sent=whole,
        stego_symbol_errors=sum(r.symbol != s for r, s in zip(reads, covert_symbols)),
        stego_exact_count=sum(r.exact for r in reads),
    )


def assert_same_report(got: SimReport, want: SimReport):
    for f in fields(SimReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.as_text() == want.as_text()


def _channel(snr_db, p_chip):
    return ChannelParams.from_snr_db(snr_db) if p_chip is None else ChannelParams(p_chip)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 3000),
    rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    snr_db=st.floats(-6.0, 6.0),
    p_chip=st.sampled_from([None, None, 0.0, 0.5]),
    seed=st.integers(0, 2**64 - 1),
    key=st.sampled_from(["0001", "ACE1", "FFFF", "5A5A"]),
)
@example(n=1, rate=1.0, snr_db=0.0, p_chip=None, seed=0, key="ACE1")
@example(n=2999, rate=0.5, snr_db=-6.0, p_chip=None, seed=1, key="ACE1")
@example(n=777, rate=0.1, snr_db=0.0, p_chip=0.0, seed=2, key="FFFF")
@example(n=1001, rate=1.0, snr_db=0.0, p_chip=0.5, seed=3, key="0001")
def test_random_payload_reports_match_the_reference(n, rate, snr_db, p_chip, seed, key):
    config = SimConfig(n, _channel(snr_db, p_chip), StegoKey.from_hex(key), rate, seed)
    assert_same_report(run_simulation(config), reference_report(config))


@pytest.mark.parametrize("covert_bits", [0, 1, 6, 41, 399])
def test_fixed_list_payload_reports_match_the_reference(covert_bits):
    # list payloads short of the rate-0.5 schedule's capacity; each but the empty one
    # ends on a partial last slot, zero-padded and not counted
    rng = np.random.default_rng(covert_bits)
    data = rng.integers(0, 2, 4 * 300, dtype=np.uint8).tolist()
    covert = rng.integers(0, 2, covert_bits, dtype=np.uint8).tolist()
    config = SimConfig(300, ChannelParams.from_snr_db(-1.0), KEY, 0.5, 9, data, covert)
    assert_same_report(run_simulation(config), reference_report(config))


def test_simulations_block_matches_the_reference():
    # the benchmark's sweep grid: 21 points of 50 symbols through one encode and one decode
    configs = [
        SimConfig(50, ChannelParams.from_snr_db(float(snr)), KEY, rate, 1000 + 3 * snr + k)
        for snr in range(7)
        for k, rate in enumerate((0.0, 0.5, 1.0))
    ]
    for got, config in zip(run_simulations(configs), configs, strict=True):
        assert_same_report(got, reference_report(config))


def test_mixed_block_matches_the_reference():
    # fixed payloads, one short of its schedule and not whole symbols, beside random ones
    rng = np.random.default_rng(12)
    data = [rng.integers(0, 2, 400, dtype=np.uint8) for _ in range(2)]
    configs = [
        SimConfig(100, ChannelParams.from_snr_db(0.0), KEY, 0.5, 5, data[0], [1, 0, 1, 1, 0, 1]),
        SimConfig(100, ChannelParams(0.1), KEY, 1.0, 6),
        SimConfig(100, ChannelParams.from_snr_db(2.0), KEY, 0.3, 7, data[1]),
        SimConfig(100, ChannelParams(0.0), KEY, 0.3, 8),
    ]
    for got, config in zip(run_simulations(configs), configs, strict=True):
        assert_same_report(got, reference_report(config))


def test_guessed_chunks_match_the_reference():
    # two whole guessed despread chunks and a tail, on a draw over both cores
    config = SimConfig(2 * GUESS_WORDS + 3, ChannelParams.from_snr_db(1.0), KEY, 0.1, 21)
    assert_same_report(run_simulation(config), reference_report(config))
