import math

import numpy as np
import pytest

from dsss_stego import pipeline
from dsss_stego.channel import ChannelParams
from dsss_stego.chipmap import CHIP_TABLE, ChipSequence, code_matrix, decode_chips
from dsss_stego.pipeline import (
    CapacityError,
    SimConfig,
    bits_to_symbols,
    decode_stream,
    despread_stream,
    embedding_schedule,
    encode_stream,
    run_simulation,
    symbols_to_bits,
)
from dsss_stego.stego import StegoKey

KEY = StegoKey.from_hex("ACE1")


def random_bits(rng, n):
    return rng.integers(0, 2, n, dtype=np.uint8)


# -- schedule ----------------------------------------------------------------

def test_schedule_extremes():
    assert embedding_schedule(KEY, 1.0, 1000).all()
    assert not embedding_schedule(KEY, 0.0, 1000).any()


def test_schedule_fraction_converges():
    mask = embedding_schedule(KEY, 0.5, 100_000)
    sigma = math.sqrt(0.25 / 100_000)
    assert abs(mask.mean() - 0.5) < 3 * sigma + 1e-4


def test_schedule_deterministic_and_key_dependent():
    a = embedding_schedule(KEY, 0.3, 5000)
    b = embedding_schedule(KEY, 0.3, 5000)
    assert (a == b).all()
    c = embedding_schedule(StegoKey.from_hex("1111"), 0.3, 5000)
    assert (a != c).any()


# -- bit/symbol packing -------------------------------------------------------

def test_bits_symbols_round_trip():
    rng = np.random.default_rng(0)
    bits = random_bits(rng, 4000)
    assert (symbols_to_bits(bits_to_symbols(bits)) == bits).all()
    assert bits_to_symbols(np.array([1, 0, 1, 1], dtype=np.uint8))[0] == 0b1011
    with pytest.raises(ValueError):
        bits_to_symbols(np.ones(5, dtype=np.uint8))


def test_non_binary_bits_rejected():
    # such values used to wrap: [32, 0, 0, 0] became symbol 0, [0, 0, 1, 2] became 4
    for bad in ([32, 0, 0, 0], [0, 0, 1, 2], [0, 0, 0, -1], [0.5, 0, 0, 0]):
        with pytest.raises(ValueError, match="0 or 1"):
            bits_to_symbols(np.array(bad))
    data = np.zeros(8, dtype=np.uint8)
    with pytest.raises(ValueError, match="0 or 1"):
        encode_stream(np.array([0, 0, 1, 2, 0, 0, 0, 0]), np.zeros(0, dtype=np.uint8), KEY, 1.0)
    for covert in ([0, 1, 3, 0], [256, 0, 0, 0], [1, 2]):
        with pytest.raises(ValueError, match="0 or 1"):
            encode_stream(data, np.array(covert), KEY, 1.0)
    with pytest.raises(ValueError, match="0 or 1"):
        run_simulation(_config(num_symbols=2, data_bits=data + 2))


def test_despread_matches_scalar_decoder():
    rng = np.random.default_rng(4)
    words = rng.integers(0, 1 << 32, 2000, dtype=np.uint32)
    vec = despread_stream(words)
    codes = [int(c) for c in code_matrix()]
    for word, got in zip(words.tolist(), vec):
        assert decode_chips(ChipSequence(word)).symbol == got
        # loop reference: first code at the least popcount distance
        assert min(range(16), key=lambda s: ((word ^ codes[s]).bit_count(), s)) == got


# -- encode -------------------------------------------------------------------

def test_encode_without_embedding_is_standard_mapping():
    bits = np.array([0, 0, 1, 1], dtype=np.uint8)  # symbol 3
    words = encode_stream(bits, np.zeros(0, dtype=np.uint8), KEY, 0.0)
    assert words.shape == (1,)
    assert ChipSequence(int(words[0])).to_string() == CHIP_TABLE[3]


def test_encode_embedded_symbol_at_distance_five():
    data = np.array([1, 0, 0, 1], dtype=np.uint8)  # symbol 9
    stego = np.array([0, 1, 1, 0], dtype=np.uint8)
    words = encode_stream(data, stego, KEY, 1.0)
    assert int(np.bitwise_count(words[0] ^ code_matrix()[9])) == 5


def test_encode_capacity_error_names_both_quantities():
    bits = random_bits(np.random.default_rng(2), 400)  # 100 symbols
    with pytest.raises(CapacityError, match=r"404 bits.*400 bits"):
        encode_stream(bits, np.ones(404, dtype=np.uint8), KEY, 1.0)


def test_full_round_trip_without_noise():
    rng = np.random.default_rng(3)
    data = random_bits(rng, 4000)
    stego = random_bits(rng, 4000)
    words = encode_stream(data, stego, KEY, 1.0)
    assert words.shape == (1000,)
    assert 8 * words.nbytes == 32_000
    decoded = decode_stream(words, KEY, 1.0)
    assert (decoded.data_bits == data).all()
    assert (decoded.stego_bits == stego).all()
    assert all(d.exact and d.weight == 5 for d in decoded.slots)


def test_decode_clean_stream_with_expectant_schedule():
    # nothing embedded, but the receiver expects rate 1
    rng = np.random.default_rng(5)
    data = random_bits(rng, 400)
    words = encode_stream(data, np.zeros(0, dtype=np.uint8), KEY, 1.0)
    decoded = decode_stream(words, KEY, 1.0)
    assert (decoded.data_bits == data).all()
    assert all((not d.exact) and d.weight == 0 for d in decoded.slots)
    assert not decoded.stego_bits.any()


# -- one keyed stream per transmission ------------------------------------------

def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(pipeline, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def test_simulation_derives_schedule_and_permutations_once(monkeypatch):
    streams = _count_calls(monkeypatch, "permutation_stream")
    schedules = _count_calls(monkeypatch, "embedding_schedule")
    run_simulation(_config(num_symbols=500, channel=ChannelParams.direct(0.05), embed_rate=0.5))
    assert (len(streams), len(schedules)) == (1, 1)
    run_simulation(_config(num_symbols=500, embed_rate=0.0))
    assert len(streams) == 1


def test_standalone_encoder_derives_only_up_to_its_payload(monkeypatch):
    streams = _count_calls(monkeypatch, "permutation_stream")
    data = random_bits(np.random.default_rng(6), 4000)  # 1000 symbols
    encode_stream(data, np.ones(12, dtype=np.uint8), KEY, 1.0)
    assert [args[-1] for args in streams] == [3]


def test_shared_permutations_match_standalone_derivation():
    rng = np.random.default_rng(7)
    data, stego = random_bits(rng, 4000), random_bits(rng, 600)
    slots = np.nonzero(embedding_schedule(KEY, 0.4, 1000))[0]
    perms = (slots, pipeline.slot_permutations(KEY, slots))
    words = encode_stream(data, stego, KEY, 0.4)
    assert (encode_stream(data, stego, KEY, 0.4, perms=perms) == words).all()
    alone, shared = decode_stream(words, KEY, 0.4), decode_stream(words, KEY, 0.4, perms=perms)
    assert (shared.stego_bits == alone.stego_bits).all() and (shared.slots == alone.slots).all()
    assert (alone.stego_bits[:600] == stego).all()


def test_encoder_rejects_perms_short_of_the_payload():
    data = random_bits(np.random.default_rng(8), 400)  # 100 symbols, all slots at rate 1
    slots = np.arange(100)
    perms = (slots, pipeline.slot_permutations(KEY, slots)[:2])
    with pytest.raises(ValueError, match=r"perms has 2 rows, the payload needs 3"):
        encode_stream(data, np.ones(12, dtype=np.uint8), KEY, 1.0, perms=perms)


def test_decoder_rejects_perms_of_another_slot_count():
    # one row would broadcast through extract_diffs and give wrong symbols
    words = encode_stream(random_bits(np.random.default_rng(9), 400), np.zeros(0), KEY, 1.0)
    slots = np.arange(100)
    perms = (slots, pipeline.slot_permutations(KEY, slots)[:1])
    with pytest.raises(ValueError, match=r"perms has 1 rows for 100 slots"):
        decode_stream(words, KEY, 1.0, perms=perms)


# -- correction radius through the stream path --------------------------------

def test_flips_within_radius_never_break_carrier():
    # deterministic construction: every symbol, every weight 0..5,
    # sliding windows of flip positions
    for s in range(16):
        base = code_matrix()[s]
        for k in range(6):
            for start in range(0, 32, 3):
                word = base.copy()
                for off in range(k):
                    word ^= np.uint32(1 << (start + off) % 32)
                assert despread_stream(np.array([word]))[0] == s


# -- simulation ----------------------------------------------------------------

def _config(**kw):
    defaults = dict(
        num_symbols=1000,
        channel=ChannelParams.direct(0.0),
        key=KEY,
        embed_rate=0.0,
        rng_seed=42,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_lossless_regime():
    report = run_simulation(_config(num_symbols=10_000, embed_rate=1.0))
    assert report.carrier_ber == 0.0
    assert report.symbol_errors == 0
    assert report.stego_symbol_errors == 0
    assert report.stego_exact_count == report.stego_symbols_sent == 10_000


def test_reports_are_bit_identical_for_identical_configs():
    cfg = _config(channel=ChannelParams.direct(0.01), embed_rate=0.5, num_symbols=5000)
    a = run_simulation(cfg).as_text()
    b = run_simulation(cfg).as_text()
    assert a == b


def test_cer_tracks_configured_probability():
    p = 0.01
    report = run_simulation(_config(num_symbols=31_250, channel=ChannelParams.direct(p)))
    n = report.chips_sent
    assert n == 1_000_000
    assert abs(report.cer - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_carrier_ber_below_bounded_distance_limit():
    # the bounded-distance estimate is an upper-ish bound for the true
    # minimum-distance decoder; stay within 10x of it
    from dsss_stego.analysis import coded_bit_error_prob

    p = 0.01
    report = run_simulation(_config(num_symbols=100_000, channel=ChannelParams.direct(p)))
    assert report.carrier_ber <= 10 * coded_bit_error_prob(p, 32, 5) + 1e-12


def test_half_noise_gives_half_ber():
    # at p=0.5 the received word is independent of the sent one, so the
    # decoded symbol is independent of a uniform payload: BER = 1/2 exactly
    # (chance symbol agreement (1/16) times 0 errors plus 15/16 times 32/15/4)
    report = run_simulation(
        _config(num_symbols=1_000_000, channel=ChannelParams.direct(0.5), rng_seed=123)
    )
    sigma = 1 / (4 * math.sqrt(report.symbols_sent))
    assert abs(report.carrier_ber - 0.5) < 4 * sigma


def test_carrier_ber_monotone_in_noise():
    # nondecreasing across the grid; strictly so once errors are measurable
    probs = [0.02, 0.05, 0.1, 0.2, 0.35]
    bers = [
        run_simulation(
            _config(num_symbols=20_000, channel=ChannelParams.direct(p), rng_seed=9)
        ).carrier_ber
        for p in probs
    ]
    assert all(a <= b for a, b in zip(bers, bers[1:]))
    assert bers[-1] > bers[0]
    assert all(a < b for a, b in zip(bers[2:], bers[3:]))


def test_report_counts_consistent():
    report = run_simulation(
        _config(num_symbols=2000, channel=ChannelParams.direct(0.05), embed_rate=0.5)
    )
    assert report.chip_errors <= report.chips_sent
    assert report.symbol_errors <= report.symbols_sent
    assert report.stego_symbol_errors <= report.stego_symbols_sent
    assert 0.0 <= report.cer <= 1.0
    assert 0.0 <= report.carrier_ber <= 1.0
    assert 0.0 <= report.stego_exact_fraction <= 1.0
    text = report.as_text()
    assert text.startswith("num_symbols=2000\n")
    assert "generator=numpy-pcg64" in text


def test_config_validation():
    with pytest.raises(ValueError):
        _config(num_symbols=0)
    with pytest.raises(ValueError):
        _config(embed_rate=1.5)
    with pytest.raises(ValueError, match="stego_bits needs data_bits"):
        _config(stego_bits=np.ones(8, dtype=np.uint8))


def test_data_bits_make_a_fixed_payload_run():
    # given data_bits the run sends exactly that payload, covert bits included
    rng = np.random.default_rng(5)
    data, covert = random_bits(rng, 4000), random_bits(rng, 40)
    report = run_simulation(_config(embed_rate=1.0, data_bits=data, stego_bits=covert))
    assert report.payload_mode == "fixed"
    assert "\npayload_mode=fixed\n" in report.as_text()
    assert report.stego_symbols_sent == 10 and report.stego_exact_count == 10
    assert run_simulation(_config(embed_rate=1.0, data_bits=data)).stego_symbols_sent == 0
    assert run_simulation(_config(embed_rate=1.0)).payload_mode == "random"
