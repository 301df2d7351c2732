import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsss_stego import pipeline, stego
from dsss_stego.channel import ChannelParams, make_rng
from dsss_stego.chipmap import CHIP_TABLE, ChipSequence, code_matrix, decode_chips, map_symbol
from dsss_stego.pipeline import (
    CapacityError,
    SimConfig,
    bits_to_symbols,
    decode_stream,
    despread_stream,
    embedding_schedule,
    encode_stream,
    run_simulation,
    run_simulations,
    symbols_to_bits,
)
from dsss_stego.stego import KeySchedule, StegoKey, embed

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
    table = [[s >> 3 - j & 1 for j in range(4)] for s in range(16)]  # first bit the MSB
    assert symbols_to_bits(np.arange(16, dtype=np.uint8)).reshape(16, 4).tolist() == table
    with pytest.raises(IndexError):  # not a symbol; its low 4 bits used to pass as one
        symbols_to_bits(np.array([16], dtype=np.uint8))
    with pytest.raises(ValueError):
        bits_to_symbols(np.ones(5, dtype=np.uint8))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_negative_symbols_rejected(dtype):
    # take would read index -k as row 16 - k: -1 used to pass as symbol 15
    with pytest.raises(IndexError):
        symbols_to_bits(np.array([3, -1], dtype=dtype))
    assert symbols_to_bits(np.array([15], dtype=dtype)).tolist() == [1, 1, 1, 1]
    assert symbols_to_bits(np.zeros(0, dtype=dtype)).size == 0


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


# -- spreading a byte of data bits at a time -------------------------------------

NO_COVERT = np.zeros(0, dtype=np.uint8)


def _by_hand(bits) -> list[int]:
    """4 bits a symbol, first bit the MSB, read off the bit string."""
    text = "".join(map(str, np.asarray(bits).tolist()))
    return [int(text[k : k + 4], 2) for k in range(0, len(text), 4)]


def test_encode_spreads_every_byte_value():
    bits = np.unpackbits(np.arange(256, dtype=np.uint8))
    words = encode_stream(bits, NO_COVERT, KEY, 0.0)
    assert words.dtype == np.uint32
    assert words.tolist() == [map_symbol(s).word for s in _by_hand(bits)]


# a block reads 4096 bytes, 8192 symbols: none, parts of one, one, one and a part, two
# and a part
@pytest.mark.parametrize("n", [0, 1, 3, 8191, 8192, 8193, 16_385])
def test_encode_across_spreading_blocks_matches_scalar_spreading(n):
    rng = np.random.default_rng(n)
    data = random_bits(rng, 4 * n)
    symbols = _by_hand(data)
    words = encode_stream(data, NO_COVERT, KEY, 0.0)
    assert words.shape == (n,) and words.tolist() == [map_symbol(s).word for s in symbols]
    if n > 8193:
        return
    # a covert payload that ends mid-stream, on a partial last slot
    slots = np.flatnonzero(embedding_schedule(KEY, 0.5, n)).tolist()
    covert = random_bits(rng, max(0, 2 * len(slots) - 1)).tolist()
    schedule, want = KeySchedule(KEY), [map_symbol(s) for s in symbols]
    for slot, symbol in zip(slots, _by_hand(covert + [0] * (-len(covert) % 4))):
        want[slot] = embed(want[slot], symbol, schedule, slot)
    got = encode_stream(data, np.array(covert, dtype=np.uint8), KEY, 0.5)
    assert got.tolist() == [word.word for word in want]


@pytest.mark.parametrize("bad", [2, 255])
def test_uint8_bits_above_one_rejected(bad):
    bits = np.zeros(8, dtype=np.uint8)
    bits[5] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        bits_to_symbols(bits)
    with pytest.raises(ValueError, match="0 or 1"):
        encode_stream(bits, NO_COVERT, KEY, 1.0)
    with pytest.raises(ValueError, match="0 or 1"):
        encode_stream(np.zeros(8, dtype=np.uint8), bits, KEY, 1.0)
    with pytest.raises(ValueError, match="data_bits must be 0 or 1"):
        _config(num_symbols=2, data_bits=bits)
    with pytest.raises(ValueError, match="stego_bits must be 0 or 1"):
        _config(num_symbols=2, data_bits=np.zeros(8, np.uint8), stego_bits=bits)


def test_empty_and_bool_bits_accepted():
    assert bits_to_symbols(NO_COVERT).size == 0
    assert encode_stream(NO_COVERT, NO_COVERT, KEY, 1.0).size == 0
    bits = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=bool)
    assert bits_to_symbols(bits).tolist() == [0b1011, 0b0110]
    words = encode_stream(bits, bits[:4], KEY, 1.0)
    assert (words == encode_stream(bits.astype(np.uint8), bits[:4].view(np.uint8), KEY, 1.0)).all()
    assert _config(num_symbols=2, data_bits=bits).data_bits.tolist() == bits.tolist()


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


def test_framed_pads_only_a_partial_last_slot():
    # covert bits fill slots 4 at a time; only a payload short of a whole slot is copied
    slots = np.arange(10, 30, 2)  # 10 slots, 40 bits
    for length in (8, 40):
        bits = np.ones(length, np.uint8)
        filled, framed = pipeline._framed(bits, slots)
        assert filled.tolist() == slots[: length // 4].tolist()
        assert np.shares_memory(framed, bits) and framed.size == length
    for length in (0, 1, 6, 39):
        bits = np.ones(length, np.uint8)
        filled, framed = pipeline._framed(bits, slots)
        assert filled.tolist() == slots[: -(-length // 4)].tolist()
        assert framed.dtype == np.uint8 and framed.size == 4 * filled.size
        assert framed[:length].all() and not framed[length:].any()
    with pytest.raises(CapacityError, match="41 bits but the schedule provides 40 bits"):
        pipeline._framed(np.ones(41, np.uint8), slots)


# -- one keyed stream per transmission ------------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_simulation_derives_schedule_and_permutations_once(monkeypatch):
    streams = _count_calls(monkeypatch, stego, "permutation_stream")
    schedules = _count_calls(monkeypatch, pipeline, "embedding_schedule")
    run_simulation(_config(num_symbols=500, channel=ChannelParams(0.05), embed_rate=0.5))
    assert (len(streams), len(schedules)) == (1, 1)
    keystreams = _count_calls(monkeypatch, stego, "_stream_bytes")
    run_simulation(_config(num_symbols=500, embed_rate=0.0))
    # a rate-0 run asks for no rows and makes no keystream byte, for schedule or permutations
    assert len(streams) == 2 and streams[1][-1].size == 0 and not keystreams


def test_simulation_groups_bits_into_symbols_only_to_encode(monkeypatch):
    # the error counts read the bit arrays; only encode_stream groups data and covert bits,
    # both through _grouped (the data straight into code-word pairs)
    groupings = _count_calls(monkeypatch, pipeline, "_grouped")
    run_simulation(_config(num_symbols=500, channel=ChannelParams(0.05), embed_rate=0.5))
    assert len(groupings) <= 2


def test_standalone_encoder_derives_only_up_to_its_payload(monkeypatch):
    streams = _count_calls(monkeypatch, stego, "permutation_stream")
    data = random_bits(np.random.default_rng(6), 4000)  # 1000 symbols
    encode_stream(data, np.ones(12, dtype=np.uint8), KEY, 1.0)
    assert [args[-1].tolist() for args in streams] == [[0, 1, 2]]


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
    with pytest.raises(ValueError, match=r"perms must be \(3, 32\), a row a word, got \(2, 32\)"):
        encode_stream(data, np.ones(12, dtype=np.uint8), KEY, 1.0, perms=perms)


def test_decoder_rejects_perms_of_another_slot_count():
    # one row would broadcast through extract_diffs and give wrong symbols
    words = encode_stream(random_bits(np.random.default_rng(9), 400), np.zeros(0), KEY, 1.0)
    slots = np.arange(100)
    perms = (slots, pipeline.slot_permutations(KEY, slots)[:1])
    with pytest.raises(ValueError, match=r"perms must be \(100, 32\), a row a word, got \(1, 32\)"):
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
        channel=ChannelParams(0.0),
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
    cfg = _config(channel=ChannelParams(0.01), embed_rate=0.5, num_symbols=5000)
    a = run_simulation(cfg).as_text()
    b = run_simulation(cfg).as_text()
    assert a == b


def test_cer_tracks_configured_probability():
    p = 0.01
    report = run_simulation(_config(num_symbols=31_250, channel=ChannelParams(p)))
    n = report.chips_sent
    assert n == 1_000_000
    assert abs(report.cer - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_carrier_ber_below_bounded_distance_limit():
    # the bounded-distance estimate is an upper-ish bound for the true
    # minimum-distance decoder; stay within 10x of it
    from dsss_stego.analysis import coded_bit_error_prob

    p = 0.01
    report = run_simulation(_config(num_symbols=100_000, channel=ChannelParams(p)))
    assert report.carrier_ber <= 10 * coded_bit_error_prob(p, 32, 5) + 1e-12


def test_half_noise_gives_half_ber():
    # at p=0.5 the received word is independent of the sent one, so the
    # decoded symbol is independent of a uniform payload: BER = 1/2 exactly
    # (chance symbol agreement (1/16) times 0 errors plus 15/16 times 32/15/4)
    report = run_simulation(
        _config(num_symbols=1_000_000, channel=ChannelParams(0.5), rng_seed=123)
    )
    sigma = 1 / (4 * math.sqrt(report.symbols_sent))
    assert abs(report.carrier_ber - 0.5) < 4 * sigma


def test_carrier_ber_monotone_in_noise():
    # nondecreasing across the grid; strictly so once errors are measurable
    probs = [0.02, 0.05, 0.1, 0.2, 0.35]
    bers = [
        run_simulation(
            _config(num_symbols=20_000, channel=ChannelParams(p), rng_seed=9)
        ).carrier_ber
        for p in probs
    ]
    assert all(a <= b for a, b in zip(bers, bers[1:]))
    assert bers[-1] > bers[0]
    assert all(a < b for a, b in zip(bers[2:], bers[3:]))


def test_report_counts_consistent():
    report = run_simulation(
        _config(num_symbols=2000, channel=ChannelParams(0.05), embed_rate=0.5)
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


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("rng_seed", True, "rng_seed must be an integer, got True"),
        ("num_symbols", True, "num_symbols must be an integer, got True"),
        ("rng_seed", -1, "rng_seed must be >= 0, got -1"),
        ("rng_seed", 1.5, "rng_seed must be an integer, got 1.5"),
    ],
    ids=["bool-seed", "bool-symbols", "negative-seed", "float-seed"],
)
def test_config_rejects_bools_and_malformed_seeds(name, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _config(**{name: value})


def test_config_takes_numpy_integers_as_ints():
    config = _config(num_symbols=np.int32(40), rng_seed=np.uint64(2**63 + 5))
    assert type(config.num_symbols) is int and type(config.rng_seed) is int
    want = run_simulation(_config(num_symbols=40, rng_seed=2**63 + 5)).as_text()
    assert run_simulation(config).as_text() == want


def test_config_checks_and_narrows_a_fixed_payload():
    # each bit is checked 0 or 1 before it is narrowed: 256 would wrap to 0, 0.5 to 0
    with pytest.raises(ValueError, match="data_bits has 3999 bits, expected 4000"):
        _config(data_bits=np.zeros(3999, np.uint8))
    for bad in ([2], [0.5], [256]):
        with pytest.raises(ValueError, match="stego_bits must be 0 or 1"):
            _config(data_bits=np.zeros(4000, np.uint8), stego_bits=bad)
    with pytest.raises(ValueError, match="data_bits must be 0 or 1"):
        _config(data_bits=[256] + [0] * 3999)
    config = _config(data_bits=[[0, 1]] * 2000, stego_bits=[[1], [0]])
    assert config.data_bits.dtype == np.uint8 and config.data_bits.tolist() == [0, 1] * 2000
    assert config.stego_bits.dtype == np.uint8 and config.stego_bits.tolist() == [1, 0]
    empty = _config(data_bits=np.zeros(4000, np.uint8)).stego_bits
    assert empty.dtype == np.uint8 and empty.shape == (0,)


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


# -- many simulations from one walk ----------------------------------------------

RATES = (0.5, 0.0, 1.0, 0.3, 0.3)  # unsorted, one repeated
CHANNELS = (ChannelParams(0.05), ChannelParams(0.0), ChannelParams.from_snr_db(-2.0))


def _one_by_one(configs):
    return [run_simulation(config).as_text() for config in configs]


@pytest.mark.parametrize("n", [1, 50, 2048, 4095, 4096, 4097])  # 4096, 81, 2 or 1 configs a call
def test_simulations_equal_one_run_each(n):
    configs = [
        _config(num_symbols=n, channel=CHANNELS[k % 3], embed_rate=RATES[k % 5], rng_seed=100 + k)
        for k in range(15)
    ]
    assert [report.as_text() for report in run_simulations(configs)] == _one_by_one(configs)


def test_simulations_mix_random_and_fixed_payloads():
    # 1002 covert bits is short of the schedule and not a multiple of 4: each fixed
    # payload fills only its own first slots, each padded alone
    rng = np.random.default_rng(11)
    data = [random_bits(rng, 4000) for _ in range(3)]
    covert = [random_bits(rng, 1002) for _ in range(2)]
    noisy = ChannelParams(0.05)
    configs = [
        _config(embed_rate=0.5, channel=noisy, data_bits=data[0], stego_bits=covert[0]),
        _config(embed_rate=0.3, channel=ChannelParams.from_snr_db(-2.0), rng_seed=7),
        _config(embed_rate=1.0, data_bits=data[1]),
        _config(embed_rate=1.0, channel=noisy, data_bits=data[2], stego_bits=covert[1]),
    ]
    reports = run_simulations(configs)
    assert [report.as_text() for report in reports] == _one_by_one(configs)
    random_slots = np.count_nonzero(embedding_schedule(KEY, 0.3, 1000))
    assert [report.stego_symbols_sent for report in reports] == [250, random_slots, 0, 250]


def test_simulation_block_decodes_only_the_filled_slots(monkeypatch):
    # fixed covert payloads short of their schedules, two of them not whole symbols: the
    # block's one decode_stream call reads the slots they fill, the table encode_stream gets
    tables = {"encode_stream": [], "decode_stream": []}
    for name, seen in tables.items():
        def spy(*args, perms, original=getattr(pipeline, name), seen=seen):
            seen.append(perms)
            return original(*args, perms=perms)
        monkeypatch.setattr(pipeline, name, spy)
    rng = np.random.default_rng(13)
    n, rates, lengths = 300, (0.3, 1.0, 0.6, 1.0), (7, 0, 40, 1001)
    configs = [
        _config(num_symbols=n, channel=CHANNELS[k % 3], embed_rate=rate, rng_seed=20 + k,
                data_bits=random_bits(rng, 4 * n), stego_bits=random_bits(rng, length))
        for k, (rate, length) in enumerate(zip(rates, lengths))
    ]
    reports = run_simulations(configs)
    filled = [np.nonzero(embedding_schedule(KEY, rate, n))[0][: -(-length // 4)]
              for rate, length in zip(rates, lengths)]
    want_slots = np.concatenate([f + j * n for j, f in enumerate(filled)])
    want_perms = np.concatenate([pipeline.slot_permutations(KEY, f) for f in filled])
    assert len(tables["decode_stream"]) == 1
    for slots, perms in tables["encode_stream"] + tables["decode_stream"]:
        assert slots.tolist() == want_slots.tolist()
        assert (perms == want_perms).all()
    assert [report.stego_symbols_sent for report in reports] == [m // 4 for m in lengths]
    monkeypatch.undo()
    assert [report.as_text() for report in reports] == _one_by_one(configs)


def test_simulations_need_at_least_one_config():
    with pytest.raises(ValueError, match="at least one config"):
        run_simulations([])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 600), st.integers(0, 600))
def test_one_payload_draw_equals_the_data_and_covert_draws(seed, data_symbols, slots):
    # a random payload draws its data and covert bits at once, 4 bits a symbol or slot
    a, b = 4 * data_symbols, 4 * slots
    one, two = make_rng(seed), make_rng(seed)
    draw = one.integers(0, 2, a + b, dtype=np.uint8)
    assert np.array_equal(draw[:a], two.integers(0, 2, a, dtype=np.uint8))
    assert np.array_equal(draw[a:], two.integers(0, 2, b, dtype=np.uint8))
    assert np.array_equal(one.random(8), two.random(8))  # the generator is left as it was


def _observed(rng):
    """A generator's observable state: its buffered 32-bit half counts only while held."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"] if state["has_uint32"] else None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 25_000), st.booleans(), st.booleans())
@example(2011, 25_000, False, False)
@example(2**63 + 5, 25_000, True, False)
@example(2**63 + 5, 25_000, True, True)
def test_payload_bits_equal_integers(seed, words, half, held):
    # counts are multiples of 4 up to 2e5 that end on a whole 64-bit word or on half of one
    count = 8 * words + 4 * half
    want_rng, got_rng = make_rng(seed), make_rng(seed)
    if held:  # both enter holding a buffered 32-bit half
        for rng in (want_rng, got_rng):
            rng.integers(0, 1 << 32, dtype=np.uint32)
    want = want_rng.integers(0, 2, count, dtype=np.uint8)
    got = pipeline._payload_bits(got_rng, count)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert _observed(got_rng) == _observed(want_rng)
    assert got_rng.random() == want_rng.random()


def test_random_payload_makes_no_bulk_integers_call(monkeypatch):
    # a random payload is one full-range 32-bit draw a config, not a range-2 draw of its bits
    calls = []

    class Counted(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append(args)
            return super().integers(*args, **kwargs)

    configs = [_config(num_symbols=5001, channel=ChannelParams(0.05), embed_rate=rate, rng_seed=k)
               for k, rate in enumerate((0.5, 0.0, 1.0))]
    want = [report.as_text() for report in run_simulations(configs)]
    monkeypatch.setattr(pipeline, "make_rng", lambda seed: Counted(np.random.PCG64(seed)))
    assert [report.as_text() for report in run_simulations(configs)] == want
    assert len(calls) == len(configs)
    assert all(args[:2] == (0, 1 << 32) for args in calls)


def test_mixed_block_hands_encode_a_uint8_payload(monkeypatch):
    # a fixed config without covert bits joins a random draw's covert bits: still a byte a bit
    payloads = []

    def spy(data_bits, stego_bits, *args, original=pipeline.encode_stream, **kwargs):
        payloads.append(stego_bits)
        return original(data_bits, stego_bits, *args, **kwargs)

    monkeypatch.setattr(pipeline, "encode_stream", spy)
    configs = [_config(embed_rate=0.5), _config(embed_rate=0.5, data_bits=np.ones(4000, np.uint8))]
    reports = run_simulations(configs)
    assert len(payloads) == 1 and payloads[0].dtype == np.uint8
    assert payloads[0].size == 4 * np.count_nonzero(embedding_schedule(KEY, 0.5, 1000))
    monkeypatch.undo()
    assert [report.as_text() for report in reports] == _one_by_one(configs)


def test_list_payload_block_hands_encode_uint8_bits(monkeypatch):
    # a list payload next to a random draw: data and covert bits stay a byte a bit
    seen = []

    def spy(data_bits, stego_bits, *args, original=pipeline.encode_stream, **kwargs):
        seen.append((data_bits.dtype, stego_bits.dtype))
        return original(data_bits, stego_bits, *args, **kwargs)

    monkeypatch.setattr(pipeline, "encode_stream", spy)
    rng = np.random.default_rng(17)
    data, covert = random_bits(rng, 4000), random_bits(rng, 30)
    configs = [_config(embed_rate=0.5),
               _config(embed_rate=0.5, data_bits=data.tolist(), stego_bits=covert.tolist())]
    reports = [report.as_text() for report in run_simulations(configs)]
    assert seen == [(np.uint8, np.uint8)]
    monkeypatch.undo()
    assert reports == _one_by_one(configs)
    arrays = [configs[0], _config(embed_rate=0.5, data_bits=data, stego_bits=covert)]
    assert reports == [report.as_text() for report in run_simulations(arrays)]


def test_simulations_share_key_and_length():
    with pytest.raises(ValueError, match="share key and num_symbols"):
        run_simulations([_config(), _config(key=StegoKey.from_hex("1111"))])
    with pytest.raises(ValueError, match="share key and num_symbols"):
        run_simulations([_config(), _config(num_symbols=999)])


def test_simulations_name_the_config_over_capacity():
    slots = np.count_nonzero(embedding_schedule(KEY, 0.5, 1000))
    data, covert = np.zeros(4000, np.uint8), np.ones(4 * slots + 1, np.uint8)
    over = _config(embed_rate=0.5, data_bits=data, stego_bits=covert)
    message = f"stego payload is {4 * slots + 1} bits but the schedule provides {4 * slots} bits"
    with pytest.raises(CapacityError, match=re.escape(message)):
        run_simulation(over)
    with pytest.raises(CapacityError, match=re.escape(message)):
        run_simulations([_config(embed_rate=1.0), over])


# -- decode_stream's fast paths ------------------------------------------------------

@pytest.mark.parametrize(
    "bad", [np.array([-1], dtype=np.int64), np.array([1 << 40]), np.array([0.0, 1.0])]
)
def test_decode_checks_its_words(bad):
    # an int64 -1 used to decode data bits, and 2**40 raised IndexError from the guess table
    with pytest.raises(ValueError, match="words must be integers"):
        decode_stream(bad, KEY, 0.5)


@pytest.mark.parametrize("shape", [(25, 4), ()])
def test_decode_needs_a_one_dimensional_stream(shape):
    words = np.resize(encode_stream(np.zeros(400, np.uint8), np.zeros(0), KEY, 0.5), shape)
    with pytest.raises(ValueError, match="words must be a 1-D array"):
        decode_stream(words, KEY, 0.5)


def test_decode_of_integer_words_equals_uint32():
    rng = np.random.default_rng(8)
    words = rng.integers(0, 1 << 32, 700, dtype=np.uint32)
    want = decode_stream(words, KEY, 0.5)
    for same in (words.astype(np.int64), words.tolist()):
        got = decode_stream(same, KEY, 0.5)
        assert np.array_equal(got.data_bits, want.data_bits)
        assert np.array_equal(got.stego_bits, want.stego_bits)
        assert got.slots.tobytes() == want.slots.tobytes()


# a block extracts 4096 slots: none, one, a frame's worth, one short of a block, a block, one over
@pytest.mark.parametrize("n", [0, 1, 253, 4095, 4096, 4097])
def test_slot_records_equal_fromarrays(n):
    rng = np.random.default_rng(n)
    sent = encode_stream(random_bits(rng, 4 * n), random_bits(rng, 4 * n), KEY, 1.0)
    # each chip flips with probability 1/8, so weights and exact flags vary
    flips = np.bitwise_and.reduce(rng.integers(0, 1 << 32, (3, n), dtype=np.uint32))
    words = sent ^ flips
    decoded = decode_stream(words, KEY, 1.0)
    index = np.arange(n)  # rate 1: every symbol is a slot
    diffs = words ^ code_matrix()[despread_stream(words)]
    _, exact, weight = stego.extract_diffs(diffs, stego.slot_permutations(KEY, index))
    want = np.rec.fromarrays(
        (index, exact, weight),
        dtype=[("symbol_index", np.intp), ("exact", bool), ("weight", np.uint8)],
    )
    assert isinstance(decoded.slots, np.recarray)
    assert decoded.slots.dtype == want.dtype
    assert decoded.slots.tobytes() == want.tobytes()
    records = list(decoded.slots)  # as the benchmark's tracer reads them
    assert [(r.symbol_index, r.exact, r.weight) for r in records] == list(
        zip(index.tolist(), exact.tolist(), weight.tolist())
    )
    assert n < 253 or len(set(weight.tolist())) > 1 and 0 < exact.sum() < n


@pytest.mark.parametrize(
    "dtype", [np.uint8, np.int8, np.int16, np.int32, np.int64, np.uint64]
)
def test_symbols_to_bits_equals_the_row_take(dtype):
    rows = np.unpackbits(np.arange(16, dtype=np.uint8)[:, None], axis=1)[:, 4:]
    symbols = np.arange(16, dtype=dtype)
    for order in (symbols, symbols[::-1], np.repeat(symbols, 3)):
        got = symbols_to_bits(order)
        assert got.dtype == np.uint8
        assert np.array_equal(got, rows.take(order, axis=0).reshape(-1))
    assert symbols_to_bits(np.zeros(0, dtype=dtype)).shape == (0,)
    with pytest.raises(IndexError):
        symbols_to_bits(np.array([16], dtype=dtype))
    if np.dtype(dtype).kind == "i":
        with pytest.raises(IndexError):
            symbols_to_bits(np.array([-1], dtype=dtype))
