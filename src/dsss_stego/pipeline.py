"""End-to-end Monte Carlo: bits -> symbols -> chips -> channel -> dual decode.

The carrier path is ordinary despreading; scheduled symbols additionally
carry a covert 4-bit symbol read back by the keyed extractor.  Reports
are bit-identical for identical configurations (seed included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import GENERATOR_ID, ChannelParams, make_rng, transmit_stream
from .chipmap import CHIPS_PER_SYMBOL, code_matrix
from .stego import (
    PATTERN_WEIGHT,
    SCHEDULE_TAPS,
    StegoKey,
    _expand_key,
    build_codebook,
    key_registers,
    lfsr_bits,
    permutation_stream,
)

_BITS_PER_SYMBOL = 4
_GROUP_WEIGHTS = np.array([8, 4, 2, 1], dtype=np.uint8)  # first bit is the MSB
_POP4 = np.array([bin(v).count("1") for v in range(16)], dtype=np.uint8)
_DECODE_CHUNK = 1 << 16


class CapacityError(ValueError):
    """Covert payload exceeds what the embedding schedule can carry."""


class FramingError(ValueError):
    """Chip stream length is not a whole number of 32-chip symbols."""


class SlotDiagnostic(NamedTuple):
    symbol_index: int
    exact: bool
    weight: int


def embedding_schedule(key: StegoKey, embed_rate: float, num_symbols: int) -> np.ndarray:
    """Keyed boolean mask: which stream symbols carry covert load.

    Symbol i is scheduled iff a key-derived 16-bit uniform value for i,
    scaled to [0, 1), falls below embed_rate.  Encoder and decoder derive
    identical masks from the shared key; the long-run scheduled fraction
    converges to embed_rate.
    """
    if not 0.0 <= embed_rate <= 1.0:
        raise ValueError(f"embed_rate must be in [0, 1], got {embed_rate}")
    if num_symbols < 0:
        raise ValueError(f"num_symbols must be >= 0, got {num_symbols}")
    if embed_rate == 0.0:
        return np.zeros(num_symbols, dtype=bool)
    if embed_rate == 1.0:
        return np.ones(num_symbols, dtype=bool)
    bits = lfsr_bits(_expand_key(key.seed), SCHEDULE_TAPS, 16 * num_symbols)
    draws = bits.reshape(num_symbols, 16) @ (1 << np.arange(15, -1, -1, dtype=np.uint32))
    return (draws / 65536.0) < embed_rate


def bits_to_symbols(bits: np.ndarray) -> np.ndarray:
    """Group bits 4 at a time into symbol values, first bit as the MSB."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % _BITS_PER_SYMBOL:
        raise ValueError(f"bit count must be divisible by 4, got {bits.size}")
    return bits.reshape(-1, _BITS_PER_SYMBOL) @ _GROUP_WEIGHTS


def symbols_to_bits(symbols: np.ndarray) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=np.uint8)
    out = np.empty((symbols.size, _BITS_PER_SYMBOL), dtype=np.uint8)
    for j in range(_BITS_PER_SYMBOL):
        out[:, j] = (symbols >> (3 - j)) & 1
    return out.reshape(-1)


def despread_stream(chips: np.ndarray) -> np.ndarray:
    """Nearest-code symbol per 32-chip row (ties to the lowest symbol)."""
    codes = code_matrix()
    out = np.empty(chips.shape[0], dtype=np.uint8)
    for start in range(0, chips.shape[0], _DECODE_CHUNK):
        block = chips[start : start + _DECODE_CHUNK]
        d = (block[:, None, :] != codes[None, :, :]).sum(axis=2)
        out[start : start + _DECODE_CHUNK] = d.argmin(axis=1)
    return out


def _as_symbol_matrix(chips: np.ndarray) -> np.ndarray:
    chips = np.asarray(chips, dtype=np.uint8)
    if chips.ndim == 1:
        if chips.size % CHIPS_PER_SYMBOL:
            raise FramingError(
                f"chip count {chips.size} is not divisible by {CHIPS_PER_SYMBOL}"
            )
        return chips.reshape(-1, CHIPS_PER_SYMBOL)
    if chips.ndim == 2 and chips.shape[1] == CHIPS_PER_SYMBOL:
        return chips
    raise FramingError(f"expected flat chips or (N, 32), got shape {chips.shape}")


def encode_stream(
    data_bits: np.ndarray,
    stego_bits: np.ndarray,
    key: StegoKey,
    embed_rate: float,
) -> np.ndarray:
    """Spread a data bit stream, embedding covert bits at scheduled slots.

    Covert bits fill the scheduled slots 4 at a time in stream order; a
    trailing partial group is zero-padded, and scheduled slots beyond the
    payload are transmitted clean.  Returns an (N, 32) uint8 chip matrix.
    """
    data_bits = np.asarray(data_bits, dtype=np.uint8)
    stego_bits = np.asarray(stego_bits, dtype=np.uint8)
    symbols = bits_to_symbols(data_bits)
    chips = code_matrix()[symbols].astype(np.uint8)
    schedule = embedding_schedule(key, embed_rate, symbols.size)
    slots = np.nonzero(schedule)[0]
    capacity = _BITS_PER_SYMBOL * slots.size
    if stego_bits.size > capacity:
        raise CapacityError(
            f"stego payload is {stego_bits.size} bits but the schedule "
            f"provides {capacity} bits"
        )
    if stego_bits.size == 0:
        return chips
    padded = np.zeros(-(-stego_bits.size // 4) * 4, dtype=np.uint8)
    padded[: stego_bits.size] = stego_bits
    stego_symbols = bits_to_symbols(padded)
    rows = slots[: stego_symbols.size]
    perms, _, _ = permutation_stream(*key_registers(key), int(rows[-1]) + 1)
    chips[rows[:, None], perms[rows]] ^= build_codebook().indicator[stego_symbols]
    return chips


@dataclass
class DecodedStream:
    data_bits: np.ndarray
    stego_bits: np.ndarray  # 4 bits per scheduled slot, stream order
    slots: list[SlotDiagnostic]


def decode_stream(chips: np.ndarray, key: StegoKey, embed_rate: float) -> DecodedStream:
    """Despread the carrier and extract covert symbols at scheduled slots."""
    matrix = _as_symbol_matrix(chips)
    decoded_symbols = despread_stream(matrix)
    data_bits = symbols_to_bits(decoded_symbols)
    schedule = embedding_schedule(key, embed_rate, matrix.shape[0])
    slot_indices = np.nonzero(schedule)[0]
    if slot_indices.size == 0:
        return DecodedStream(data_bits, np.zeros(0, dtype=np.uint8), [])
    perms, _, _ = permutation_stream(*key_registers(key), int(slot_indices[-1]) + 1)
    diff = matrix[slot_indices] ^ code_matrix()[decoded_symbols[slot_indices]]
    weight = diff.sum(axis=1, dtype=np.int32)
    # diff bit at chip perm[p] is codebook position p; distance is the
    # symmetric difference |diff| + 5 - 2 * overlap with each pattern
    overlap = np.take_along_axis(diff, perms[slot_indices], axis=1) @ build_codebook().indicator.T
    dist = weight[:, None] + PATTERN_WEIGHT - 2 * overlap.astype(np.int32)
    stego_symbols = dist.argmin(axis=1).astype(np.uint8)  # ties go to the lowest symbol
    exact = dist.min(axis=1) == 0
    diagnostics = list(map(SlotDiagnostic, slot_indices.tolist(), exact.tolist(), weight.tolist()))
    return DecodedStream(data_bits, symbols_to_bits(stego_symbols), diagnostics)


@dataclass(frozen=True)
class SimConfig:
    num_symbols: int
    channel: ChannelParams
    key: StegoKey
    embed_rate: float
    rng_seed: int
    payload_mode: str = "random"
    data_bits: np.ndarray | None = field(default=None, compare=False)
    stego_bits: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.num_symbols < 1:
            raise ValueError(f"num_symbols must be >= 1, got {self.num_symbols}")
        if not 0.0 <= self.embed_rate <= 1.0:
            raise ValueError(f"embed_rate must be in [0, 1], got {self.embed_rate}")
        if self.payload_mode not in ("random", "fixed"):
            raise ValueError(f"unknown payload_mode {self.payload_mode!r}")
        if self.payload_mode == "fixed" and self.data_bits is None:
            raise ValueError("fixed payload_mode needs data_bits")


@dataclass(frozen=True)
class SimReport:
    """Measured error statistics of one simulated transmission."""

    num_symbols: int
    p_chip: float
    snr_db: float | None
    embed_rate: float
    key_hex: str
    rng_seed: int
    payload_mode: str
    generator: str
    chips_sent: int
    chip_errors: int
    symbols_sent: int
    symbol_errors: int
    carrier_bit_errors: int
    stego_symbols_sent: int
    stego_symbol_errors: int
    stego_exact_count: int

    @property
    def cer(self) -> float:
        return self.chip_errors / self.chips_sent if self.chips_sent else 0.0

    @property
    def carrier_ser(self) -> float:
        return self.symbol_errors / self.symbols_sent if self.symbols_sent else 0.0

    @property
    def carrier_ber(self) -> float:
        bits = _BITS_PER_SYMBOL * self.symbols_sent
        return self.carrier_bit_errors / bits if bits else 0.0

    @property
    def stego_ser(self) -> float:
        if not self.stego_symbols_sent:
            return 0.0
        return self.stego_symbol_errors / self.stego_symbols_sent

    @property
    def stego_exact_fraction(self) -> float:
        if not self.stego_symbols_sent:
            return 0.0
        return self.stego_exact_count / self.stego_symbols_sent

    def as_text(self) -> str:
        """Flat key=value document; stable field order, 10-digit reals."""
        lines = [
            f"num_symbols={self.num_symbols}",
            f"p_chip={self.p_chip:.9e}",
            f"snr_db={'none' if self.snr_db is None else format(self.snr_db, '.9e')}",
            f"embed_rate={self.embed_rate:.9e}",
            f"key={self.key_hex}",
            f"rng_seed={self.rng_seed}",
            f"payload_mode={self.payload_mode}",
            f"generator={self.generator}",
            f"chips_sent={self.chips_sent}",
            f"chip_errors={self.chip_errors}",
            f"cer={self.cer:.9e}",
            f"symbols_sent={self.symbols_sent}",
            f"symbol_errors={self.symbol_errors}",
            f"carrier_ser={self.carrier_ser:.9e}",
            f"carrier_bit_errors={self.carrier_bit_errors}",
            f"carrier_ber={self.carrier_ber:.9e}",
            f"stego_symbols_sent={self.stego_symbols_sent}",
            f"stego_symbol_errors={self.stego_symbol_errors}",
            f"stego_ser={self.stego_ser:.9e}",
            f"stego_exact_count={self.stego_exact_count}",
            f"stego_exact_fraction={self.stego_exact_fraction:.9e}",
        ]
        return "\n".join(lines) + "\n"


def run_simulation(config: SimConfig) -> SimReport:
    """Generate payloads, encode, push through the channel, decode, tally."""
    rng = make_rng(config.rng_seed)
    n = config.num_symbols
    schedule = embedding_schedule(config.key, config.embed_rate, n)
    capacity = _BITS_PER_SYMBOL * int(schedule.sum())
    if config.payload_mode == "random":
        data_bits = rng.integers(0, 2, _BITS_PER_SYMBOL * n, dtype=np.uint8)
        stego_bits = rng.integers(0, 2, capacity, dtype=np.uint8)
    else:
        data_bits = np.asarray(config.data_bits, dtype=np.uint8)
        stego_bits = (
            np.zeros(0, dtype=np.uint8)
            if config.stego_bits is None
            else np.asarray(config.stego_bits, dtype=np.uint8)
        )
        if data_bits.size != _BITS_PER_SYMBOL * n:
            raise ValueError(
                f"fixed payload has {data_bits.size} bits, expected {_BITS_PER_SYMBOL * n}"
            )
    sent_symbols = bits_to_symbols(data_bits)
    chips = encode_stream(data_bits, stego_bits, config.key, config.embed_rate)
    received, chip_errors = transmit_stream(chips, config.channel, rng)
    decoded = decode_stream(received, config.key, config.embed_rate)
    decoded_symbols = bits_to_symbols(decoded.data_bits)
    symbol_errors = int((decoded_symbols != sent_symbols).sum())
    bit_errors = int(_POP4[decoded_symbols ^ sent_symbols].sum())

    # covert stats cover only slots that actually carried payload bits
    n_stego = stego_bits.size // _BITS_PER_SYMBOL
    stego_errors = 0
    stego_exact = 0
    if n_stego:
        truth = bits_to_symbols(stego_bits[: 4 * n_stego])
        got = bits_to_symbols(decoded.stego_bits)[:n_stego]
        stego_errors = int((got != truth).sum())
        stego_exact = sum(1 for d in decoded.slots[:n_stego] if d.exact)

    return SimReport(
        num_symbols=n,
        p_chip=config.channel.p_chip,
        snr_db=config.channel.snr_db,
        embed_rate=config.embed_rate,
        key_hex=config.key.hex,
        rng_seed=config.rng_seed,
        payload_mode=config.payload_mode,
        generator=GENERATOR_ID,
        chips_sent=CHIPS_PER_SYMBOL * n,
        chip_errors=chip_errors,
        symbols_sent=n,
        symbol_errors=symbol_errors,
        carrier_bit_errors=bit_errors,
        stego_symbols_sent=n_stego,
        stego_symbol_errors=stego_errors,
        stego_exact_count=stego_exact,
    )
