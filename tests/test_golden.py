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
import random

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
    lfsr_bits,
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
# between its encoder and decoder.
REPORT_PINS = {
    "fixed-prefix": "137e288da1e84e0f4d35903c0436ed1fb77d6168c4e96da620d4f0faff03886f",
    "rate1-6dB": "ee1f54535a3a28afd7f485e82baec4ec8047fc7a2b277a00e078167cc0ddd1e0",
    "p-chip-0.2": "27cf9767eee0bc72b9f8d012367b3a0246bb0db950f9c7d2bce1a4e81d16ecd9",
}

# The ``decode --diag-out`` sidecar of a noisy chip file, taken while each
# decoded slot was still one Python object.
DIAG_PIN = "d98455bfadef30407ce7854d0405507212d9b681526ca0f0c6cd3e75f6ec4e69"

# Text outputs of ``stats``, ``analytic`` and ``sweep``, taken while the code
# table was still a settable ``CodeSet`` and the model carried n, t and d_mean.
CLI_PINS = {
    "stats": "c57286693e79de9de1507fcbcad4bf42a84e37ee8231f128312e233f0fd87b11",
    "analytic-ratio": "5e5f58a5a9e9f6a568aca5ca46e03c4be0ece7a9ca33da70b50ad69e6878f600",
    "analytic-chips3": "91d26c2c1a14a2fc4cd33de3b13753bb98858d6954702feb583305228f56bdfa",
    "sweep-neg-seed": "c255bf24ca1b4fb348c1d6a95c40ea7069acfc1649cbdf275090361554e91025",
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
        ("p-chip-0.2", dict(num_symbols=2000, channel=ChannelParams.direct(0.2), embed_rate=0.5)),
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
    noisy, _ = transmit_stream(words, ChannelParams.direct(0.05), make_rng(2011))
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
    "analytic-chips3": ["analytic", "--snr-db=-4:8:1", "--embed-rate", "0,0.5,1",
                        "--embed-chips", "3"],
    # a negative base seed still gives per-point seeds in [0, 2^64)
    "sweep-neg-seed": ["sweep", "--snr-db", "0,4", "--embed-rate", "0,0.5,1",
                       "--symbols-per-point", "200", "--seed", "-3"],
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
    assert lfsr_bits(seed, taps, 40_000).tolist() == want
    for count in (0, 1, 31, 32, 33, 16_385):
        assert lfsr_bits(seed, taps, count).tolist() == want[:count]


@pytest.mark.parametrize("key_hex", ORACLE_KEYS)
def test_permutations_match_scalar_oracle(key_hex):
    key = StegoKey.from_hex(key_hex)
    want = oracle_permutations(key.seed, 1100)
    perms, _, _ = permutation_stream(*key_registers(key), 1100)
    assert [tuple(p) for p in perms.tolist()] == want
    # continuing from saved register states is exact
    head, a, b = permutation_stream(*key_registers(key), 333)
    tail, _, _ = permutation_stream(a, b, 1100 - 333)
    assert [tuple(p) for p in head.tolist() + tail.tolist()] == want


def test_short_stretches_continue_exactly(monkeypatch):
    # undersized stretches make the walk run out mid-permutation again and again
    monkeypatch.setattr(stego, "_MEAN_BITS", 20)
    monkeypatch.setattr(stego, "_CHUNK", 7)
    key = StegoKey.from_hex("ACE1")
    perms, _, _ = permutation_stream(*key_registers(key), 300)
    assert [tuple(p) for p in perms.tolist()] == oracle_permutations(key.seed, 300)
    empty, a, b = permutation_stream(*key_registers(key), 0)
    assert empty.shape == (0, 32) and (a, b) == key_registers(key)


@pytest.mark.parametrize("block", [KeySchedule.BLOCK, 50])
def test_key_schedule_random_and_backward_access(block):
    key = StegoKey.from_hex("7D3B")
    want = oracle_permutations(key.seed, 2200)
    sched = KeySchedule(key)
    sched.BLOCK = block
    for i in (5, 1099, 0, 1023, 1024, 64, 700, 2199, 3, 49, 50, 51, 1100, 1099):
        assert sched.permutation(i) == want[i]
    fresh = KeySchedule(key)
    fresh.BLOCK = block
    assert [fresh.permutation(i) for i in range(2200)] == want


@pytest.mark.parametrize("rate", [0.001, 0.37, 0.999])
def test_schedule_mask_matches_scalar_oracle(rate):
    key = StegoKey.from_hex(REF_KEY)
    n = 5000
    bits = oracle_bits((key.seed << 16) | (key.seed ^ 0xFFFF), SECONDARY_TAPS, 16 * n)
    draws = [int("".join(map(str, bits[16 * i : 16 * i + 16])), 2) for i in range(n)]
    want = [d / 65536.0 < rate for d in draws]
    assert dsss_stego.embedding_schedule(key, rate, n).tolist() == want
