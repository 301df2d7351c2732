"""Wire contract: pinned digests of the keystream, schedule, chip files and reports.

The keyed permutation stream, the embedding schedule mask, chip-file bytes
and the ``simulate`` report text must stay bit-exact under every refactor:
a change to any of them breaks every chip file and report written before
it.  The digests below were taken from the original bit-at-a-time
keystream; the inputs are rebuilt here from a SHA-256 counter stream so
they do not depend on numpy's generators.  The bulk keystream is also
checked against a scalar register stepped one bit at a time.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

import dsss_stego
from dsss_stego import stego
from dsss_stego.channel import ChannelParams, make_rng, transmit_stream
from dsss_stego.cli import main
from dsss_stego.fileio import write_chip_stream
from dsss_stego.stego import (
    PRIMARY_TAPS,
    SECONDARY_TAPS,
    KeySchedule,
    StegoKey,
    key_registers,
    permutation_stream,
)

REF_KEY = "ACE1"

PINS = {
    "perm.0001": "9ef1c88e7cb7174b0beac4a880bc851a00d00533515ac5a1f14eddbb9bbae922",
    "perm.ACE1": "8206eb8427e3988d9fa3203c4554546c425eace0d0f33f0c328e25def47493f9",
    "perm.FFFF": "a81ab6c71cc590253ce23955a43d34912d06c2e97b46e831e1e4930b41ac0ad9",
    "schedule.0.37": "16d55d5d17ef23fec787973246d6edb64914e1ba750c3cc2b464b280af68cf49",
    "encode.chipfile": "905fd58f7739a1c6b147f0d35fd1d58e625fa952c819bcf0c274b0bb8b81b707",
    "report.sim-clean": "43d3008a93150c220f45712b5d83c69085ec5b7af43c8825295963eab60f6c63",
    "report.sim-covert": "2ced008cca67795efc91d38ac78054d6fc8c7ad9555380dbe501428f9ef558e9",
}

# More simulate reports, taken before run_simulation shared one keyed stream
# between its encoder and decoder.  ``slots-cross-block`` was taken later,
# while embed and extract still built their tables over all slots at once:
# its 5330 covert slots span more than one 4096-word block.  ``half-word-tail``
# was taken while the random payload was one ``Generator.integers`` call; its
# 4 * (6000 + 1759) payload bits end on half a 64-bit word, where those of
# ``slots-cross-block`` (9000 + 5330) and ``report.sim-clean`` (1e5 + 0) end on
# a whole one.  The three ``guess-*`` and ``uniform-*`` pins were taken while every
# word was despread by a 16-code search; their 40 000 symbols fill two whole guessed
# chunks of 16 384 words and a tail, at -8 dB (most words miss the guess), 6 dB
# (nearly all are guessed) and p_chip 0.5 (uniform words, ties decided by the search).
REPORT_PINS = {
    "fixed-prefix": "137e288da1e84e0f4d35903c0436ed1fb77d6168c4e96da620d4f0faff03886f",
    "rate1-6dB": "ee1f54535a3a28afd7f485e82baec4ec8047fc7a2b277a00e078167cc0ddd1e0",
    "p-chip-0.2": "27cf9767eee0bc72b9f8d012367b3a0246bb0db950f9c7d2bce1a4e81d16ecd9",
    "slots-cross-block": "5e95da104f1d8665b0388968ef31eaaa039e27807565ddc4681abae95633b36e",
    "half-word-tail": "18734c701e37f40d74acd901783e81a541400ad4352c6f471c7d087348d3dac0",
    "guess-miss--8dB": "9b6efd87b51a204054291c326593bd1f93d0ccc2c4b27a01665fd01e2757926d",
    "guess-hit-6dB": "39e57b7619f5b2a1729038633a3dcc4ff77e4c834dcdc7dcc42b5a92abbf45ee",
    "uniform-p-chip-0.5": "f66261b0d906e6da22a396316834f5d21dedbbccc404564a8f0fa45a09db51b3",
}

# The ``decode --diag-out`` sidecar of a noisy chip file, taken while each
# decoded slot was still one Python object.
DIAG_PIN = "d98455bfadef30407ce7854d0405507212d9b681526ca0f0c6cd3e75f6ec4e69"

# The ``encode_stream`` words of 16 385 symbols at rate 0.37 with a 1002-bit covert
# payload, taken while each symbol's code word was still looked up on its own: two whole
# spreading blocks of 8192 symbols and one symbol more, an odd count no chip file holds.
BLOCKS_PIN = "31308b21ac2dabaa248d0c022f3431ecf6d3b951de248c8d26b5801c065f0f2c"

# Text outputs of ``stats``, ``analytic`` and ``sweep``, taken while the code
# table was still a settable ``CodeSet`` and the model carried n, t and d_mean.
# ``analytic-diff`` was taken later, while the model still spelled out its own
# dB conversion and its 8/15 bit-error factor.  The three ``sweep-*-call`` pins
# were taken while every sweep point ran its own simulation and walk.
CLI_PINS = {
    "stats": "c57286693e79de9de1507fcbcad4bf42a84e37ee8231f128312e233f0fd87b11",
    "analytic-ratio": "5e5f58a5a9e9f6a568aca5ca46e03c4be0ece7a9ca33da70b50ad69e6878f600",
    "analytic-diff": "a29055f3887d37990262905fccd9850d63e4b507e51d2b7d64700e7540f9cd3f",
    "analytic-chips3": "91d26c2c1a14a2fc4cd33de3b13753bb98858d6954702feb583305228f56bdfa",
    "sweep-neg-seed": "c255bf24ca1b4fb348c1d6a95c40ea7069acfc1649cbdf275090361554e91025",
    "sweep-one-point-a-call": "c76cbb95939336c6b5e5c4d76485881ec94a453bb16e5de47acbf6226b179313",
    "sweep-two-points-a-call": "3d5c96f080c2318fcd72e51b53534da42bc43ca9e49b5234f736aede608f4db6",
    "sweep-all-points-one-call": "2d8472be041691f37d7a93da80bc4e2dbf31391fef692afc52fa604ab558df35",
    "analytic-default-grid": "de3f17a9e3d2aa0fa28308a9f86d8085b40abfd07957cd0472718ea207e2dbca",
    "analytic-below-bracket": "1ef3490cec13e04b952afa9cd51215f248e114f4573ed060bb1b955c7cfc54ea",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixed_bits(label: str, count: int) -> np.ndarray:
    stream = b"".join(
        hashlib.sha256(f"{label}:{i}".encode()).digest() for i in range(-(-count // 256))
    )
    return np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[:count]


@pytest.mark.parametrize("key_hex", ["0001", "ACE1", "FFFF"])
def test_first_10k_permutations_pinned(key_hex):
    schedule = dsss_stego.KeySchedule(dsss_stego.StegoKey.from_hex(key_hex))
    h = hashlib.sha256()
    for i in range(10_000):
        h.update(bytes(schedule.permutation(i)))
    assert h.hexdigest() == PINS[f"perm.{key_hex}"]


def test_schedule_mask_pinned():
    key = dsss_stego.StegoKey.from_hex(REF_KEY)
    mask = dsss_stego.embedding_schedule(key, 0.37, 10_000)
    assert sha(np.packbits(np.asarray(mask, dtype=bool)).tobytes()) == PINS["schedule.0.37"]


def test_encoded_chip_file_pinned(tmp_path):
    # 1002 covert bits is not a multiple of 4, so the zero padding is covered
    chips = dsss_stego.encode_stream(
        fixed_bits("data", 4 * 1024),
        fixed_bits("stego", 1002),
        dsss_stego.StegoKey.from_hex(REF_KEY),
        0.5,
    )
    path = tmp_path / "golden.chip"
    write_chip_stream(path, chips)
    assert sha(path.read_bytes()) == PINS["encode.chipfile"]



def test_encode_across_spreading_blocks_pinned():
    words = dsss_stego.encode_stream(
        fixed_bits("blocks", 4 * 16_385),
        fixed_bits("stego", 1002),
        dsss_stego.StegoKey.from_hex(REF_KEY),
        0.37,
    )
    assert words.dtype == np.uint32 and words.shape == (16_385,)
    assert sha(words.astype("<u4").tobytes()) == BLOCKS_PIN

@pytest.mark.parametrize(
    "name, num_symbols, embed_rate",
    [("sim-clean", 100_000, 0.0), ("sim-covert", 500, 0.5)],
)
def test_simulation_report_pinned(name, num_symbols, embed_rate):
    report = dsss_stego.run_simulation(
        dsss_stego.SimConfig(
            num_symbols=num_symbols,
            channel=ChannelParams.from_snr_db(0.0),
            key=dsss_stego.StegoKey.from_hex(REF_KEY),
            embed_rate=embed_rate,
            rng_seed=2011,
        )
    )
    assert sha(report.as_text().encode()) == PINS[f"report.{name}"]


@pytest.mark.parametrize(
    "name, kwargs",
    [
        # 101 covert symbols against about 250 slots: the encoder embeds at a
        # strict prefix of the scheduled slots; 402 bits also need padding
        (
            "fixed-prefix",
            dict(
                num_symbols=1000, channel=ChannelParams.from_snr_db(2.0), embed_rate=0.25,
                data_bits=fixed_bits("data", 4000),
                stego_bits=fixed_bits("stego", 402),
            ),
        ),
        ("rate1-6dB", dict(num_symbols=600, channel=ChannelParams.from_snr_db(6), embed_rate=1.0)),
        ("p-chip-0.2", dict(num_symbols=2000, channel=ChannelParams(0.2), embed_rate=0.5)),
        (
            "slots-cross-block",
            dict(num_symbols=9000, channel=ChannelParams(0.05), embed_rate=0.6),
        ),
        # 6000 symbols and 1759 slots: the random payload ends on half a 64-bit word
        ("half-word-tail", dict(num_symbols=6000, channel=ChannelParams.from_snr_db(1.0),
                                embed_rate=0.3)),
        ("guess-miss--8dB", dict(num_symbols=40_000, channel=ChannelParams.from_snr_db(-8),
                                 embed_rate=0.0)),
        ("guess-hit-6dB", dict(num_symbols=40_000, channel=ChannelParams.from_snr_db(6),
                               embed_rate=0.25)),
        ("uniform-p-chip-0.5", dict(num_symbols=40_000, channel=ChannelParams(0.5),
                                    embed_rate=0.0)),
    ],
)
def test_more_simulation_reports_pinned(name, kwargs):
    report = dsss_stego.run_simulation(
        dsss_stego.SimConfig(key=dsss_stego.StegoKey.from_hex(REF_KEY), rng_seed=2011, **kwargs)
    )
    assert sha(report.as_text().encode()) == REPORT_PINS[name]


def test_decode_diag_csv_pinned(tmp_path):
    # 251 covert symbols against about 400 slots, through a noisy channel:
    # the sidecar holds exact, nearest-pattern and unfilled (",0,0") rows
    key = dsss_stego.StegoKey.from_hex(REF_KEY)
    words = dsss_stego.encode_stream(fixed_bits("data", 4000), fixed_bits("stego", 1002), key, 0.4)
    noisy, _ = transmit_stream(words, ChannelParams(0.05), make_rng(2011))
    chips, diag = tmp_path / "noisy.chip", tmp_path / "diag.csv"
    write_chip_stream(chips, noisy)
    assert main([
        "decode", "--in", str(chips), "--key", REF_KEY, "--embed-rate", "0.4",
        "--data-out", str(tmp_path / "data.out"), "--diag-out", str(diag),
    ]) == 0
    rows = diag.read_text().splitlines()[1:]
    flags = {row.split(",", 1)[1] for row in rows}
    assert {"1,5", "0,0"} <= flags and any(f.startswith("0,") and f != "0,0" for f in flags)
    assert sha(diag.read_bytes()) == DIAG_PIN


CLI_ARGS = {
    "stats": ["stats"],
    "analytic-ratio": ["analytic", "--snr-db=-4:8:1", "--embed-rate", "0,0.5,1",
                       "--pm-mode", "ratio"],
    "analytic-diff": ["analytic", "--snr-db=-4:8:1", "--embed-rate", "0,0.5,1"],
    "analytic-chips3": ["analytic", "--snr-db=-4:8:1", "--embed-rate", "0,0.5,1",
                        "--embed-chips", "3"],
    # a negative base seed still gives per-point seeds in [0, 2^64)
    "sweep-neg-seed": ["sweep", "--snr-db", "0,4", "--embed-rate", "0,0.5,1",
                       "--symbols-per-point", "200", "--seed", "-3"],
    # run_simulations puts BLOCK_WORDS // symbols-per-point points through one encode and
    # one decode: 1, 2 and all 66 here; the rates come unsorted, one of them twice
    "sweep-one-point-a-call": ["sweep", "--snr-db=-2,0,3", "--embed-rate", "0.7,0,0.7,1",
                               "--symbols-per-point", "4097", "--seed", "4"],
    "sweep-two-points-a-call": ["sweep", "--snr-db=-2,0,3", "--embed-rate", "0.7,0,0.7,1",
                                "--symbols-per-point", "2048", "--seed", "4"],
    "sweep-all-points-one-call": ["sweep", "--snr-db=-6:10:0.5", "--embed-rate", "0.1,0.25",
                                  "--symbols-per-point", "1", "--seed", "77"],
    # -10:10:0.5 x 5 rates, 205 rows, 164 of them bisected
    "analytic-default-grid": ["analytic"],
    # the row at -6.95 dB crosses below the 30 dB bracket; it prints a 30 dB shift either way
    "analytic-below-bracket": ["analytic", "--pm-mode", "ratio", "--embed-chips", "1",
                               "--snr-db=-8:-6:0.05", "--embed-rate", "0.25"],
}


@pytest.mark.parametrize("name", CLI_PINS)
def test_cli_text_outputs_pinned(tmp_path, name):
    out = tmp_path / "out.txt"
    assert main([*CLI_ARGS[name], "--out", str(out)]) == 0
    assert sha(out.read_bytes()) == CLI_PINS[name]


# -- scalar oracle: the registers stepped one bit at a time -------------------

def oracle_step(state, taps):
    """(output bit, next state): shift right, feed the tap parity in at bit 31."""
    mask = sum(1 << (32 - t) for t in taps)
    return state & 1, (state >> 1) | (((state & mask).bit_count() & 1) << 31)


def oracle_bits(state, taps, count):
    out = []
    for _ in range(count):
        bit, state = oracle_step(state, taps)
        out.append(bit)
    return out


def stream_bits(seed, taps, count):
    """The first `count` bits of the bulk keystream's bytes, LSB of each byte first."""
    stream = stego._stream_bytes(seed, taps, -(-count // 8))
    return np.unpackbits(np.frombuffer(stream, np.uint8), count=count, bitorder="little")


def oracle_permutations(key_seed, count):
    a = (key_seed << 16) | (key_seed ^ 0xFFFF)
    b = ~a & 0xFFFFFFFF
    perms = []

    def draw(nbits):  # MSB first, from the XOR of the two register streams
        nonlocal a, b
        value = 0
        for _ in range(nbits):
            (bit_a, a), (bit_b, b) = oracle_step(a, PRIMARY_TAPS), oracle_step(b, SECONDARY_TAPS)
            value = (value << 1) | (bit_a ^ bit_b)
        return value

    for _ in range(count):
        perm = list(range(32))
        for i in range(31, 0, -1):
            j = draw(i.bit_length())
            while j > i:
                j = draw(i.bit_length())
            perm[i], perm[j] = perm[j], perm[i]
        perms.append(tuple(perm))
    return perms


ORACLE_KEYS = ["0001", "ACE1", "FFFF"] + [
    f"{seed:04X}" for seed in random.Random(2011).sample(range(1, 1 << 16), 2)
]


@pytest.mark.parametrize("taps", [PRIMARY_TAPS, SECONDARY_TAPS])
@pytest.mark.parametrize("seed", [0x1, 0xACE153E, 0xFFFFFFFF, 0x80000000])
def test_register_bits_match_scalar_oracle(seed, taps):
    # 40 000 bits cross two span boundaries of the basis XOR
    want = oracle_bits(seed, taps, 40_000)
    assert stream_bits(seed, taps, 40_000).tolist() == want
    for count in (0, 1, 31, 32, 33, 16_385):
        assert stream_bits(seed, taps, count).tolist() == want[:count]


@pytest.mark.parametrize("key_hex", ORACLE_KEYS)
def test_permutations_match_scalar_oracle(key_hex):
    key = StegoKey.from_hex(key_hex)
    want = oracle_permutations(key.seed, 1100)
    perms, _, _ = permutation_stream(*key_registers(key), np.arange(1100))
    assert [tuple(p) for p in perms.tolist()] == want
    # continuing from saved register states is exact
    head, a, b = permutation_stream(*key_registers(key), np.arange(333))
    tail, _, _ = permutation_stream(a, b, np.arange(1100 - 333))
    assert [tuple(p) for p in head.tolist() + tail.tolist()] == want


def test_short_stretches_continue_exactly(monkeypatch):
    # undersized stretches make the walk run out mid-permutation again and again
    monkeypatch.setattr(stego, "_MEAN_BITS", 20)
    monkeypatch.setattr(stego, "BLOCK_WORDS", 7)
    key = StegoKey.from_hex("ACE1")
    perms, _, _ = permutation_stream(*key_registers(key), np.arange(300))
    assert [tuple(p) for p in perms.tolist()] == oracle_permutations(key.seed, 300)
    empty, a, b = permutation_stream(*key_registers(key), np.arange(0))
    assert empty.shape == (0, 32) and (a, b) == key_registers(key)


@pytest.fixture(scope="module")
def schedule_oracle():
    # made once for both block sizes: the scalar oracle is most of the test's time
    return oracle_permutations(0x7D3B, 2200)


@pytest.mark.parametrize("block", [KeySchedule.BLOCK, 50])
def test_key_schedule_random_and_backward_access(block, schedule_oracle):
    key, want = StegoKey.from_hex("7D3B"), schedule_oracle
    sched = KeySchedule(key)
    sched.BLOCK = block
    for i in (5, 1099, 0, 1023, 1024, 64, 700, 2199, 3, 49, 50, 51, 1100, 1099):
        assert sched.permutation(i) == want[i]
    fresh = KeySchedule(key)
    fresh.BLOCK = block
    assert [fresh.permutation(i) for i in range(2200)] == want


@pytest.fixture(scope="module")
def schedule_draws():
    # the first 5000 16-bit schedule draws of REF_KEY, MSB first
    key = StegoKey.from_hex(REF_KEY)
    bits = oracle_bits((key.seed << 16) | (key.seed ^ 0xFFFF), SECONDARY_TAPS, 16 * 5000)
    return [int("".join(map(str, bits[16 * i : 16 * i + 16])), 2) for i in range(5000)]


# the dyadic rates put r * 65536 on, beside or below a 16-bit draw
@pytest.mark.parametrize(
    "rate", [0.001, 0.37, 0.999, 2**-16, 2**-17, 0.5, 1 - 2**-16, 12345 / 65536]
)
def test_schedule_mask_matches_scalar_oracle(rate, schedule_draws):
    key = StegoKey.from_hex(REF_KEY)
    want = [d / 65536.0 < rate for d in schedule_draws]
    assert dsss_stego.embedding_schedule(key, rate, len(want)).tolist() == want


def test_pins_equal_the_benchmark_gates():
    # the benchmark's gate keeps its own copy of PINS, read here without running it:
    # the two copies must not drift apart
    path = Path(__file__).resolve().parent.parent / "bench" / "gate.py"
    spec = importlib.util.spec_from_file_location("bench_gate", path)
    spec.loader.exec_module(gate := importlib.util.module_from_spec(spec))
    assert sorted(gate.PINS) == sorted(PINS)
    for name, digest in PINS.items():
        assert gate.PINS[name] == digest, name
