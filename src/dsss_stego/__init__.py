"""Covert signalling inside IEEE 802.15.4 DSSS spreading codes.

Chip-level codec (embed/extract of 4-bit covert symbols as keyed 5-chip
flip patterns), a binary-symmetric chip channel, the closed-form
performance model, and an end-to-end Monte Carlo pipeline.
"""

from .analysis import (
    PerformanceModelParams,
    SensitivityPoint,
    StegoAlphabetReport,
    ber_ieee,
    ber_with_stego,
    coded_bit_error_prob,
    delta_avg_distance,
    delta_ber,
    misdecode_shift,
    sensitivity_point,
    sensitivity_shift,
    stego_alphabet_size,
    uncoded_bit_error_prob,
)
from .channel import ChannelParams, make_rng, snr_to_chip_error_prob, transmit
from .chipmap import (
    ChipSequence,
    CodeSetStats,
    DecodeResult,
    code_set_stats,
    decode_chips,
    hamming,
    map_symbol,
    standard_code_set,
)
from .pipeline import (
    SimConfig,
    SimReport,
    decode_stream,
    encode_stream,
    run_simulation,
    run_simulations,
)
from .stego import (
    ExtractResult,
    KeySchedule,
    StegoCodebook,
    StegoKey,
    build_codebook,
    embed,
    embedding_schedule,
    extract,
)

__version__ = "0.1.0"
