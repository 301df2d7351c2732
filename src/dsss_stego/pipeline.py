"""End-to-end Monte Carlo: bits -> symbols -> chips -> channel -> dual decode.

The carrier path is ordinary despreading; scheduled symbols additionally
carry a covert 4-bit symbol read back by the keyed extractor.  Reports
are bit-identical for identical configurations (seed included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import GENERATOR_ID, ChannelParams, make_rng, transmit_stream
from .chipmap import BITS_PER_SYMBOL, CHIPS_PER_SYMBOL, code_matrix, despread_stream
from .stego import (
    SECONDARY_TAPS,
    StegoKey,
    _expand_key,
    embed_words,
    extract_diffs,
    key_registers,
    lfsr_bits,
    permutation_stream,
)

_GROUP_WEIGHTS = np.array([8, 4, 2, 1], dtype=np.uint8)  # first bit is the MSB
SlotPerms = tuple[np.ndarray, np.ndarray]  # (ascending scheduled slots, their (S, 32) perms)
_SLOT_DTYPE = np.dtype([("symbol_index", np.intp), ("exact", bool), ("weight", np.uint8)])


class CapacityError(ValueError):
    """Covert payload exceeds what the embedding schedule can carry."""


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
    bits = lfsr_bits(_expand_key(key.seed), SECONDARY_TAPS, 16 * num_symbols)
    draws = bits.reshape(num_symbols, 16) @ (1 << np.arange(15, -1, -1, dtype=np.uint32))
    return (draws / 65536.0) < embed_rate


def slot_permutations(key: StegoKey, slots: np.ndarray) -> np.ndarray:
    """Keyed permutations of ascending stream slots, one (32,) row each."""
    if slots.size == 0:
        return np.zeros((0, CHIPS_PER_SYMBOL), dtype=np.uint8)
    return permutation_stream(*key_registers(key), int(slots[-1]) + 1)[0][slots]


def bits_to_symbols(bits: np.ndarray) -> np.ndarray:
    """Group bits 4 at a time into symbol values, first bit as the MSB."""
    bits = np.asarray(bits)
    if bits.size % BITS_PER_SYMBOL:
        raise ValueError(f"bit count must be divisible by 4, got {bits.size}")
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError("bits must be 0 or 1")
    return bits.astype(np.uint8).reshape(-1, BITS_PER_SYMBOL) @ _GROUP_WEIGHTS


def symbols_to_bits(symbols: np.ndarray) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=np.uint8)
    out = np.empty((symbols.size, BITS_PER_SYMBOL), dtype=np.uint8)
    for j in range(BITS_PER_SYMBOL):
        out[:, j] = (symbols >> (3 - j)) & 1
    return out.reshape(-1)


def encode_stream(
    data_bits: np.ndarray,
    stego_bits: np.ndarray,
    key: StegoKey,
    embed_rate: float,
    *,
    perms: SlotPerms | None = None,
) -> np.ndarray:
    """Spread a data bit stream, embedding covert bits at scheduled slots.

    Covert bits fill the scheduled slots 4 at a time in stream order; a
    trailing partial group is zero-padded, and scheduled slots beyond the
    payload are transmitted clean.  Returns (N,) uint32 chip words.  Alone
    it derives permutations up to the last payload slot; ``perms=(slots,
    permutations)`` passes in those of the same key, rate and length.
    """
    symbols = bits_to_symbols(data_bits)
    words = code_matrix()[symbols]
    if perms is None:
        perms = np.nonzero(embedding_schedule(key, embed_rate, symbols.size))[0], None
    slots, slot_perms = perms
    stego_bits = np.asarray(stego_bits)
    capacity = BITS_PER_SYMBOL * slots.size
    if stego_bits.size > capacity:
        raise CapacityError(
            f"stego payload is {stego_bits.size} bits but the schedule "
            f"provides {capacity} bits"
        )
    if stego_bits.size == 0:
        return words
    padding = np.zeros(-stego_bits.size % BITS_PER_SYMBOL, dtype=np.uint8)
    stego_symbols = bits_to_symbols(np.concatenate((stego_bits.reshape(-1), padding)))
    rows = slots[: stego_symbols.size]
    if slot_perms is not None and len(slot_perms) < rows.size:
        raise ValueError(f"perms has {len(slot_perms)} rows, the payload needs {rows.size}")
    row_perms = slot_permutations(key, rows) if slot_perms is None else slot_perms[: rows.size]
    words[rows] = embed_words(words[rows], stego_symbols, row_perms)
    return words


@dataclass
class DecodedStream:
    data_bits: np.ndarray
    stego_bits: np.ndarray  # 4 bits per scheduled slot, stream order
    slots: np.recarray  # one record per scheduled slot: symbol_index, exact, weight


def decode_stream(
    words: np.ndarray, key: StegoKey, embed_rate: float, *, perms: SlotPerms | None = None
) -> DecodedStream:
    """Despread (N,) uint32 words and extract covert symbols; ``perms`` as in encode_stream."""
    decoded_symbols = despread_stream(words)
    data_bits = symbols_to_bits(decoded_symbols)
    if perms is None:
        slot_indices = np.nonzero(embedding_schedule(key, embed_rate, len(words)))[0]
        perms = slot_indices, slot_permutations(key, slot_indices)
    slot_indices, slot_perms = perms
    if len(slot_perms) != slot_indices.size:
        raise ValueError(f"perms has {len(slot_perms)} rows for {slot_indices.size} slots")
    diffs = words[slot_indices] ^ code_matrix()[decoded_symbols[slot_indices]]
    stego_symbols, exact, weight = extract_diffs(diffs, slot_perms)
    slots = np.rec.fromarrays((slot_indices, exact, weight), dtype=_SLOT_DTYPE)
    return DecodedStream(data_bits, symbols_to_bits(stego_symbols), slots)


@dataclass(frozen=True)
class SimConfig:
    """One simulated transmission; a random payload unless data_bits is given."""

    num_symbols: int
    channel: ChannelParams
    key: StegoKey
    embed_rate: float
    rng_seed: int
    data_bits: np.ndarray | None = field(default=None, compare=False)
    stego_bits: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.num_symbols < 1:
            raise ValueError(f"num_symbols must be >= 1, got {self.num_symbols}")
        if not 0.0 <= self.embed_rate <= 1.0:
            raise ValueError(f"embed_rate must be in [0, 1], got {self.embed_rate}")
        if self.stego_bits is not None and self.data_bits is None:
            raise ValueError("stego_bits needs data_bits: a random payload draws its own")


@dataclass(frozen=True)
class SimReport:
    """Measured error statistics of one simulated transmission."""

    num_symbols: int
    p_chip: float
    snr_db: float | None
    embed_rate: float
    key_hex: str
    rng_seed: int
    payload_mode: str  # "fixed" if the config gave data_bits, else "random"
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
        bits = BITS_PER_SYMBOL * self.symbols_sent
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
    """Generate payloads, encode, push through the channel, decode, tally.
    The schedule and the slots' permutations are derived once, for both ends."""
    rng = make_rng(config.rng_seed)
    n = config.num_symbols
    slots = np.nonzero(embedding_schedule(config.key, config.embed_rate, n))[0]
    perms = slots, slot_permutations(config.key, slots)
    capacity = BITS_PER_SYMBOL * slots.size
    if config.data_bits is None:
        data_bits = rng.integers(0, 2, BITS_PER_SYMBOL * n, dtype=np.uint8)
        stego_bits = rng.integers(0, 2, capacity, dtype=np.uint8)
    else:
        data_bits = np.asarray(config.data_bits)
        stego_bits = np.asarray([] if config.stego_bits is None else config.stego_bits)
        if data_bits.size != BITS_PER_SYMBOL * n:
            raise ValueError(
                f"fixed payload has {data_bits.size} bits, expected {BITS_PER_SYMBOL * n}"
            )
    sent_symbols = bits_to_symbols(data_bits)
    words = encode_stream(data_bits, stego_bits, config.key, config.embed_rate, perms=perms)
    received, chip_errors = transmit_stream(words, config.channel, rng)
    decoded = decode_stream(received, config.key, config.embed_rate, perms=perms)
    decoded_symbols = bits_to_symbols(decoded.data_bits)
    symbol_errors = int((decoded_symbols != sent_symbols).sum())
    bit_errors = int(np.bitwise_count(decoded_symbols ^ sent_symbols).sum())

    # covert stats cover only slots that actually carried payload bits
    n_stego = stego_bits.size // BITS_PER_SYMBOL
    truth = bits_to_symbols(stego_bits[: 4 * n_stego])
    got = bits_to_symbols(decoded.stego_bits)[:n_stego]
    stego_errors = int((got != truth).sum())
    stego_exact = int(decoded.slots.exact[:n_stego].sum())

    return SimReport(
        num_symbols=n,
        p_chip=config.channel.p_chip,
        snr_db=config.channel.snr_db,
        embed_rate=config.embed_rate,
        key_hex=config.key.hex,
        rng_seed=config.rng_seed,
        payload_mode="random" if config.data_bits is None else "fixed",
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
