"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; every tolerance is pinned here, none are calibrated elsewhere.
"""

import math
import random
import time
from itertools import combinations

import mpmath as mp
import numpy as np

from dsss_stego.analysis import (
    PerformanceModelParams,
    ber_ieee,
    coded_bit_error_prob,
    sensitivity_curve,
    sensitivity_shift,
    stego_alphabet_size,
)
from dsss_stego.channel import ChannelParams
from dsss_stego.chipmap import (
    code_matrix,
    code_set_stats,
    decode_chips,
    map_symbol,
    pack_chips,
)
from dsss_stego.pipeline import SimConfig, despread_stream, run_simulation
from dsss_stego.stego import (
    KeySchedule,
    StegoKey,
    build_codebook,
    embed,
    embed_words,
    extract,
    extract_diffs,
)

mp.mp.dps = 50

# df=31 chi-square critical value at the 1% significance level
CHI2_CRIT_31_P99 = 52.1914


def _ok(num: int, text: str, t0: float) -> None:
    print(f"PASS {num}: {text} ({time.perf_counter() - t0:.2f} s)")


def test_criterion_1_code_set_statistics():
    t0 = time.perf_counter()
    stats = code_set_stats()
    assert stats.d_min == 12
    assert stats.d_max == 20
    assert abs(stats.d_mean - 17.1) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"code-set stats d_min=12 d_max=20 d_mean={stats.d_mean:.4f}", t0)


def test_criterion_2_alphabet_arithmetic():
    t0 = time.perf_counter()
    rep = stego_alphabet_size(12)
    assert rep.fixed_weight_patterns == math.comb(32, 5) == 201376
    assert abs(rep.bits_per_sequence - 17.62) <= 0.01
    # independent big-integer oracle: Pascal's triangle, additions only
    row = [1]
    for _ in range(32):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    assert rep.total_patterns == sum(row[1:6]) == 242824
    _ok(2, "alphabet 201376 / 17.62 bits / 242824 total", t0)


def test_criterion_3_correction_radius():
    t0 = time.perf_counter()
    # exhaustive: every carrier symbol x every covert symbol
    sched = KeySchedule(StegoKey.from_hex("ACE1"))
    for c in range(16):
        for e in range(16):
            out = embed(map_symbol(c), e, sched, c * 16 + e)
            assert decode_chips(out).symbol == c
    # randomized: 1e5 perturbations of up to 5 chips
    rng = np.random.default_rng(2024)
    n = 100_000
    symbols = rng.integers(0, 16, n)
    weights = rng.integers(0, 6, n)
    ranks = rng.random((n, 32)).argsort(axis=1).argsort(axis=1)
    flips = pack_chips(ranks < weights[:, None])
    words = code_matrix()[symbols] ^ flips
    decoded = despread_stream(words)
    errors = int((decoded != symbols).sum())
    assert errors == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(3, f"zero carrier errors over 256 embeds + {n} perturbations", t0)


def test_criterion_4_covert_round_trip():
    t0 = time.perf_counter()
    rnd = random.Random(404)
    # every carrier x covert symbol x symbol index, as one batch per key
    carriers, covert, index = (a.reshape(-1) for a in np.indices((16, 16, 10)))
    codes = code_matrix()
    failures = 0
    for _ in range(100):
        sched = KeySchedule(StegoKey(rnd.randrange(1, 65536)))
        perms = np.array([sched.permutation(i) for i in range(10)], dtype=np.uint8)[index]
        out = embed_words(codes[carriers], covert, perms)
        symbols = despread_stream(out)
        got, exact, weight = extract_diffs(out ^ codes[symbols], perms)
        failures += np.count_nonzero(
            (symbols != carriers) | (got != covert) | ~exact | (weight != 5)
        )
    assert failures == 0
    # spot-check the same contract through the schedule-level entry points
    for _ in range(100):
        key = StegoKey(rnd.randrange(1, 65536))
        i, c, e = rnd.randrange(10), rnd.randrange(16), rnd.randrange(16)
        out = embed(map_symbol(c), e, KeySchedule(key), i)
        assert decode_chips(out) == (c, 5)
        assert extract(out, KeySchedule(key), i) == (e, True, 5)
    _ok(4, "16x16x100 keys x10 indices round trip, zero failures", t0)


def test_criterion_5_standard_ber_curve():
    t0 = time.perf_counter()
    assert abs(ber_ieee(0.0) - 0.5) <= 1e-9
    values = [ber_ieee(10 ** ((db / 10) / 10)) for db in range(-100, 101)]
    assert all(a > b for a, b in zip(values, values[1:]))
    for snr in (0.25, 0.5, 1.0, 2.0, 4.0):
        total = mp.mpf(0)
        for k in range(2, 17):
            total += (-1) ** k * mp.binomial(16, k) * mp.exp(
                20 * mp.mpf(snr) * (mp.mpf(1) / k - 1)
            )
        oracle = float(mp.mpf(8) / 15 / 16 * total)
        assert abs(ber_ieee(snr) - oracle) <= 5e-10 * abs(oracle)
    _ok(5, "BER curve: 0.5 limit, monotone on 0.1 dB grid, 10-digit oracle match", t0)


def test_criterion_6_coded_bit_error_oracle():
    t0 = time.perf_counter()
    for p_b in (1e-4, 1e-3, 1e-2, 1e-1):
        for t in range(6):
            total = mp.mpf(0)
            q = 1 - mp.mpf(p_b)
            for i in range(t + 1, 33):
                total += i * mp.binomial(32, i) * mp.mpf(p_b) ** i * q ** (32 - i)
            oracle = float(total / 32)
            got = coded_bit_error_prob(p_b, 32, t)
            assert abs(got - oracle) <= 5e-10 * oracle
    _ok(6, "coded bit-error estimate matches 50-digit oracle to 10 digits", t0)


def test_criterion_7_sensitivity_reproduction():
    t0 = time.perf_counter()
    params = PerformanceModelParams(embed_chips=5, embed_rate=1.0, pm_mode="diff")
    shift = sensitivity_shift(4.0, params)
    assert abs(shift - 1.8) <= 0.9
    assert sensitivity_shift(4.0, PerformanceModelParams(embed_rate=0.0)) == 0.0
    grid = sensitivity_curve(
        [db / 2 for db in range(-20, 21)], [0.0, 0.25, 0.5, 0.75, 1.0], params
    )
    assert all(p.sensitivity_shift_db < 15.0 for p in grid)
    rate_shifts = [
        sensitivity_shift(4.0, PerformanceModelParams(embed_rate=r))
        for r in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a <= b for a, b in zip(rate_shifts, rate_shifts[1:]))
    _ok(7, f"sensitivity shift at 4 dB = {shift:.3f} dB (target 1.8 +/- 0.9), grid < 15 dB", t0)


def test_criterion_8_scrambling_uniformity():
    t0 = time.perf_counter()
    rnd = random.Random(88)
    counts = [0] * 32
    n_symbols = 100_000
    keys = 100
    book = build_codebook()
    for _ in range(keys):
        sched = KeySchedule(StegoKey(rnd.randrange(1, 65536)))
        for i in range(n_symbols // keys):
            perm = sched.permutation(i)
            for p in book.patterns[rnd.randrange(16)]:
                counts[perm[p]] += 1
    expected = n_symbols * 5 / 32
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT_31_P99
    _ok(8, f"flip-position chi-square {chi2:.1f} < {CHI2_CRIT_31_P99} (df=31, 1%)", t0)


def test_criterion_9_monte_carlo_consistency():
    t0 = time.perf_counter()
    key = StegoKey.from_hex("ACE1")
    for p in (1e-3, 1e-2, 1e-1):
        report = run_simulation(
            SimConfig(
                num_symbols=31_250,  # exactly 1e6 chips
                channel=ChannelParams(p),
                key=key,
                embed_rate=0.0,
                rng_seed=777,
            )
        )
        assert report.chips_sent == 1_000_000
        sigma = math.sqrt(p * (1 - p) / report.chips_sent)
        assert abs(report.cer - p) < 3 * sigma
    cfg = SimConfig(
        num_symbols=4000,
        channel=ChannelParams(0.01),
        key=key,
        embed_rate=0.5,
        rng_seed=31337,
    )
    assert run_simulation(cfg).as_text() == run_simulation(cfg).as_text()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(9, "CER within 3 sigma at p=1e-3/1e-2/1e-1; reports byte-identical", t0)
