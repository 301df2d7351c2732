import math

import mpmath as mp
import numpy as np
import pytest

from dsss_stego.channel import (
    ChannelParams,
    make_rng,
    snr_db_to_linear,
    snr_to_chip_error_prob,
    transmit,
    transmit_stream,
)
from dsss_stego.chipmap import ChipSequence, map_symbol


def test_snr_map_anchor_at_unity():
    # oracle: ½·erfc(1) at 50 digits
    mp.mp.dps = 50
    oracle = float(mp.erfc(1) / 2)
    got = snr_to_chip_error_prob(1.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(0.0786, abs=5e-5)


def test_snr_map_limits():
    assert snr_to_chip_error_prob(1e-20) == pytest.approx(0.5, abs=1e-9)
    assert snr_to_chip_error_prob(100.0) < 1e-15
    assert 0.0 < snr_to_chip_error_prob(25.0) < 0.5


def test_snr_map_strictly_decreasing():
    # up to 24 dB; beyond ~28 dB erfc underflows to exactly 0 in float64
    grid = [10 ** (db / 10) for db in range(-100, 25, 2)]
    values = [snr_to_chip_error_prob(s) for s in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_snr_map_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            snr_to_chip_error_prob(bad)


def test_db_conversion():
    assert snr_db_to_linear(0.0) == 1.0
    assert snr_db_to_linear(10.0) == pytest.approx(10.0)
    p = ChannelParams.from_snr_db(0.0)
    assert p.snr_db == 0.0
    assert p.p_chip == pytest.approx(0.5 * math.erfc(1.0))


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(p_chip=0.6)
    with pytest.raises(ValueError):
        ChannelParams(p_chip=-0.1)
    assert ChannelParams.direct(0.0).p_chip == 0.0


def test_noiseless_transmit_is_identity():
    rng = make_rng(0)
    seq = map_symbol(5)
    assert transmit(seq, ChannelParams.direct(0.0), rng) == seq


def test_transmit_deterministic_given_seed():
    params = ChannelParams.direct(0.3)
    a = transmit(map_symbol(1), params, make_rng(99))
    b = transmit(map_symbol(1), params, make_rng(99))
    assert a == b


def test_flip_rate_within_binomial_interval():
    n = 1_000_000
    p = 0.1
    words = np.zeros(n // 32, dtype=np.uint32)
    out, flips = transmit_stream(words, ChannelParams.direct(p), make_rng(7))
    assert flips == int(np.bitwise_count(out).sum())
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(flips / n - p) < 3 * sigma


def test_half_rate_noise_marginal_uniform():
    n = 400_000
    words = np.full(n // 32, 0xFFFFFFFF, dtype=np.uint32)
    out, _ = transmit_stream(words, ChannelParams.direct(0.5), make_rng(21))
    assert abs(np.bitwise_count(out).sum() / n - 0.5) < 3 * math.sqrt(0.25 / n)


def test_transmit_preserves_shape_and_type():
    words = np.zeros(10, dtype=np.uint32)
    out, flips = transmit_stream(words, ChannelParams.direct(0.2), make_rng(3))
    assert out.shape == words.shape
    assert out.dtype == np.uint32
    assert flips == int(np.bitwise_count(out).sum())
    assert isinstance(transmit(map_symbol(0), ChannelParams.direct(0.2), make_rng(3)), ChipSequence)
