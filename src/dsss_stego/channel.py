"""Memoryless binary-symmetric chip channel with reproducible noise."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chipmap import CHIPS_PER_SYMBOL, ChipSequence, pack_chips

# Recorded in every report so results can be reproduced bit for bit.
GENERATOR_ID = "numpy-pcg64"


def snr_db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def snr_to_chip_error_prob(snr_linear: float) -> float:
    """Chip-flip probability for coherent binary detection at the given SNR.

    p = erfc(sqrt(snr)) / 2: strictly decreasing, 0.5 at zero SNR, -> 0 as
    SNR grows.  A modeling convenience for driving the simulator from an
    SNR figure; the analytic BER model is separate.
    """
    if snr_linear <= 0.0:
        raise ValueError(f"SNR must be positive, got {snr_linear}")
    return 0.5 * math.erfc(math.sqrt(snr_linear))


@dataclass(frozen=True)
class ChannelParams:
    """Independent per-chip flip probability, optionally derived from SNR."""

    p_chip: float
    snr_db: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_chip <= 0.5:
            raise ValueError(f"p_chip must be in [0, 0.5], got {self.p_chip}")

    @classmethod
    def direct(cls, p_chip: float) -> "ChannelParams":
        return cls(p_chip=p_chip)

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "ChannelParams":
        p = snr_to_chip_error_prob(snr_db_to_linear(snr_db))
        return cls(p_chip=p, snr_db=snr_db)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def transmit_stream(
    words: np.ndarray, params: ChannelParams, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Flip each chip of the (N,) uint32 words independently with probability p_chip.

    One uniform draw per chip, chip 0 of word 0 first.  Returns the received
    words and the number of flips (the chip error count as measured at the
    channel, before any decoding).
    """
    if params.p_chip == 0.0:
        return words.copy(), 0
    flips = pack_chips(rng.random(words.shape + (CHIPS_PER_SYMBOL,)) < params.p_chip)
    return words ^ flips, int(np.bitwise_count(flips).sum())


def transmit(
    seq: ChipSequence, params: ChannelParams, rng: np.random.Generator
) -> ChipSequence:
    out, _ = transmit_stream(np.array([seq.word], dtype=np.uint32), params, rng)
    return ChipSequence(int(out[0]))
