"""Stream codec and end-to-end Monte Carlo: bits -> symbols -> chips ->
channel -> dual decode.

The carrier path is ordinary despreading; the symbols that stego's keyed
schedule selects additionally carry a covert 4-bit symbol, embedded and
read back through stego's per-slot permutations.  Reports are
bit-identical for identical configurations (seed included).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .channel import GENERATOR_ID, ChannelParams, make_rng, transmit_stream
from .chipmap import (
    BITS_PER_SYMBOL, BLOCK_WORDS, CHIPS_PER_SYMBOL, _as_words, code_matrix, despread_stream
)
from .stego import (
    StegoKey, _as_int, embed_words, embedding_schedule, extract_diffs, slot_permutations
)

# a byte's two symbols, and their two code words: after packbits, each byte reads its row
_NIBBLES = np.array([[b >> 4, b & 0xF] for b in range(256)], dtype=np.uint8)
_PAIR_CODES = code_matrix()[_NIBBLES]  # (256, 2) uint32, 2 KiB
# (16, 1) uint32: each symbol's 4 bits, MSB first, as the 4 bytes of one word; take reads it flat
_BIT_WORDS = np.unpackbits(np.arange(16, dtype=np.uint8)[:, None] << 4, axis=1, count=4).view("u4")
SlotPerms = tuple[np.ndarray, np.ndarray]  # (ascending scheduled slots, their (S, 32) perms)
_SLOT_DTYPE = np.dtype(
    (np.record, [("symbol_index", np.intp), ("exact", bool), ("weight", np.uint8)])
)


class CapacityError(ValueError):
    """Covert payload exceeds what the embedding schedule can carry."""


def _as_bits(name: str, bits) -> np.ndarray:
    """The bits as a flat uint8 array, checked before they are narrowed: each 0 or 1."""
    bits = np.ravel(bits)
    if bits.dtype == np.uint8:  # the same test, with no full-size temporary
        bad = bits.max(initial=0) > 1
    else:  # a nonzero bit other than 1
        bad = np.count_nonzero(bits) != np.count_nonzero(bits == 1)
    if bad:
        raise ValueError(f"{name} must be 0 or 1")
    return bits.astype(np.uint8, copy=False)


def _grouped(name: str, bits, table: np.ndarray) -> np.ndarray:
    """The table entry of each 4 bits, first bit the MSB, from its (256, 2) table: packbits
    puts 2 groups in a byte, high nibble first, and each byte reads its row, a block a time."""
    bits = _as_bits(name, bits)
    if bits.size % BITS_PER_SYMBOL:
        raise ValueError(f"bit count must be divisible by 4, got {bits.size}")
    packed = np.packbits(bits)
    out = np.empty((packed.size, 2), dtype=table.dtype)
    # a block's indices are cast to intp in 32 KiB; "clip" clips no byte, and unlike
    # "raise" it writes out directly, with no buffered copy
    for start in range(0, packed.size, BLOCK_WORDS):
        block = slice(start, start + BLOCK_WORDS)
        table.take(packed[block], axis=0, out=out[block], mode="clip")
    return out.reshape(-1)[: bits.size // BITS_PER_SYMBOL]


def bits_to_symbols(bits: np.ndarray) -> np.ndarray:
    """Group bits 4 at a time into symbol values, first bit as the MSB."""
    return _grouped("bits", bits, _NIBBLES)


def symbols_to_bits(symbols: np.ndarray) -> np.ndarray:
    """Each symbol value (< 16) as 4 bits, first bit the MSB: one table word per symbol."""
    symbols = np.asarray(symbols).reshape(-1)
    if symbols.dtype.kind == "i" and symbols.min(initial=0) < 0:  # take would read word 16 - k
        raise IndexError(f"symbols must be >= 0, got {symbols.min()}")
    return _BIT_WORDS.take(symbols).view(np.uint8)


def _framed(stego_bits: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots covert bits fill, 4 bits a slot in stream order, and the bits zero-padded
    to whole slots (an unpadded payload as it is, uncopied); CapacityError past the last."""
    if stego_bits.size > BITS_PER_SYMBOL * slots.size:
        raise CapacityError(
            f"stego payload is {stego_bits.size} bits but the schedule "
            f"provides {BITS_PER_SYMBOL * slots.size} bits"
        )
    if pad := -stego_bits.size % BITS_PER_SYMBOL:
        stego_bits = np.concatenate((stego_bits, np.zeros(pad, np.uint8)))
    return slots[: stego_bits.size // BITS_PER_SYMBOL], stego_bits


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
    permutations)`` passes in the slots to fill and theirs; embed_rate is then unread.
    """
    words = _grouped("bits", data_bits, _PAIR_CODES)
    if perms is None:
        perms = np.nonzero(embedding_schedule(key, embed_rate, len(words)))[0], None
    slots, slot_perms = perms
    rows, stego_bits = _framed(np.ravel(stego_bits), slots)
    if rows.size == 0:
        return words
    stego_symbols = bits_to_symbols(stego_bits)
    if slot_perms is not None and len(slot_perms) < rows.size:
        raise ValueError(f"perms has {len(slot_perms)} rows, the payload needs {rows.size}")
    row_perms = slot_permutations(key, rows) if slot_perms is None else slot_perms[: rows.size]
    words[rows] = embed_words(words[rows], stego_symbols, row_perms)
    return words


@dataclass
class DecodedStream:
    data_bits: np.ndarray
    stego_bits: np.ndarray  # 4 bits per slot read (perms' slots, else every scheduled one)
    slots: np.recarray  # one record per slot read: symbol_index, exact, weight


def decode_stream(
    words: np.ndarray, key: StegoKey, embed_rate: float, *, perms: SlotPerms | None = None
) -> DecodedStream:
    """Despread (N,) uint32 words and extract covert symbols; ``perms`` as in encode_stream."""
    decoded_symbols = despread_stream(words := _as_words(words))
    data_bits = symbols_to_bits(decoded_symbols)
    if perms is None:
        slot_indices = np.nonzero(embedding_schedule(key, embed_rate, len(words)))[0]
        perms = slot_indices, slot_permutations(key, slot_indices)
    slot_indices, slot_perms = perms
    if len(slot_perms) != slot_indices.size:
        raise ValueError(f"perms has {len(slot_perms)} rows for {slot_indices.size} slots")
    diffs = words.take(slot_indices) ^ code_matrix().take(decoded_symbols.take(slot_indices))
    stego_symbols, exact, weight = extract_diffs(diffs, slot_perms)
    slots = np.empty(slot_indices.size, _SLOT_DTYPE)  # records built in place, a column a write
    slots["symbol_index"], slots["exact"], slots["weight"] = slot_indices, exact, weight
    return DecodedStream(data_bits, symbols_to_bits(stego_symbols), slots.view(np.recarray))


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
        for name in ("num_symbols", "rng_seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.num_symbols < 1:
            raise ValueError(f"num_symbols must be >= 1, got {self.num_symbols}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not 0.0 <= self.embed_rate <= 1.0:
            raise ValueError(f"embed_rate must be in [0, 1], got {self.embed_rate}")
        if self.stego_bits is not None and self.data_bits is None:
            raise ValueError("stego_bits needs data_bits: a random payload draws its own")
        if self.data_bits is not None:  # given bits are kept flat as uint8; no stego_bits: none
            for name, bits in (("data_bits", self.data_bits), ("stego_bits", self.stego_bits)):
                object.__setattr__(self, name, _as_bits(name, () if bits is None else bits))
            if (size := self.data_bits.size) != (want := BITS_PER_SYMBOL * self.num_symbols):
                raise ValueError(f"data_bits has {size} bits, expected {want}")


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
    """Generate payloads, encode, push through the channel, decode, tally."""
    return run_simulations([config])[0]


def run_simulations(configs: Sequence[SimConfig]) -> list[SimReport]:
    """The run_simulation report of each config, from one walk of the keyed stream.

    The configs, at least one, share key and num_symbols.  Schedules are nested (symbol
    i is a slot at rate r iff its schedule word d_i < r * 65536), so the largest rate's
    slots hold every config's.  Configs go max(1, BLOCK_WORDS // num_symbols) at
    a time through one encode_stream and one decode_stream, each with its own generator."""
    if not configs:
        raise ValueError("run_simulations needs at least one config")
    key, n = configs[0].key, configs[0].num_symbols
    if any(c.key != key or c.num_symbols != n for c in configs):
        raise ValueError("configs must share key and num_symbols")
    rate = max(c.embed_rate for c in configs)
    slots = np.nonzero(embedding_schedule(key, rate, n))[0]
    top = slots, slot_permutations(key, slots)
    # one schedule per smaller rate, kept as its rows of the table; the largest reads it whole
    rows = {r: np.searchsorted(slots, np.nonzero(embedding_schedule(key, r, n))[0])
            for r in {c.embed_rate for c in configs} - {rate}}
    step = max(1, BLOCK_WORDS // n)
    blocks = range(0, len(configs), step)
    return [r for k in blocks for r in _simulate(configs[k : k + step], rate, top, rows)]


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """The pieces end to end; a lone piece as it is, uncopied."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _payload_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """rng.integers(0, 2, count, dtype=np.uint8) for a count divisible by 4, and the same
    generator state after it, from count // 4 full-range 32-bit draws.

    A range-2 uint8 draw never rejects (its Lemire threshold is 0): each value is bit 7
    of one byte of a 32-bit draw, low byte first, so of each little-endian byte of the
    draws.  Both serve a buffered 32-bit half first, and leave one as the other does."""
    draws = rng.integers(0, 1 << 32, count // 4, np.uint32)
    bits = draws.astype("<u4", copy=False).view(np.uint8)  # a copy only on big-endian hosts
    return np.right_shift(bits, 7, out=bits)


def _simulate(
    configs: Sequence[SimConfig], top_rate: float, top: SlotPerms, rows: dict[float, np.ndarray]
) -> list[SimReport]:
    """The configs' streams end to end through one encode_stream and one decode_stream.
    Each pads its covert bits to whole symbols; both calls read only the slots they fill."""
    key, n = configs[0].key, configs[0].num_symbols
    top_slots, top_perms = top
    bits = BITS_PER_SYMBOL * n
    rngs, data, covert, slots, perms, runs, start = [], [], [], [], [], [], 0
    for j, config in enumerate(configs):
        index = rows.get(config.embed_rate, slice(None))  # a whole slice: views, not copies
        scheduled = top_slots[index]
        rngs.append(rng := make_rng(config.rng_seed))
        data_bits, stego_bits = config.data_bits, config.stego_bits
        if data_bits is None:
            # data then covert in one draw, equal to two: 4k bits leave no 32-bit half part-used
            draw = _payload_bits(rng, bits + BITS_PER_SYMBOL * scheduled.size)
            data_bits, stego_bits = draw[:bits], draw[bits:]
        data.append(data_bits)
        filled, framed = _framed(stego_bits, scheduled)
        covert.append(framed)
        slots.append(filled + j * n if j else filled)  # the block's stream offsets
        perms.append(top_perms[index][: filled.size])
        # covert stats count whole 4-bit groups only: a zero-padded last one is not counted
        runs.append(slice(start, start + stego_bits.size // BITS_PER_SYMBOL))
        start += filled.size
    fill = _joined(slots), _joined(perms)
    sent_data, payload = _joined(data), _joined(covert)
    words = encode_stream(sent_data, payload, key, top_rate, perms=fill)
    parts = zip(range(0, len(words), n), configs, rngs)
    sent = [transmit_stream(words[k : k + n], c.channel, rng) for k, c, rng in parts]
    decoded = decode_stream(_joined([r for r, _ in sent]), key, top_rate, perms=fill)
    # error flags over the block; a symbol's 4 bits (0/1 bytes) read as one uint32
    wrong = (decoded.data_bits != sent_data).reshape(len(configs), bits)
    bit_errors = wrong.sum(axis=1).tolist()
    symbol_errors = (wrong.view(np.uint32) != 0).sum(axis=1).tolist()
    # the payload's 0/1 bytes, 4 to a slot, read as one uint32 a slot
    stego_wrong = decoded.stego_bits.view(np.uint32) != payload.view(np.uint32)
    exact = decoded.slots["exact"]  # read once: a record array field read costs a few µs
    return [
        SimReport(
            num_symbols=n,
            p_chip=config.channel.p_chip,
            snr_db=config.channel.snr_db,
            embed_rate=config.embed_rate,
            key_hex=key.hex,
            rng_seed=config.rng_seed,
            payload_mode="random" if config.data_bits is None else "fixed",
            generator=GENERATOR_ID,
            chips_sent=CHIPS_PER_SYMBOL * n,
            chip_errors=sent[j][1],
            symbols_sent=n,
            symbol_errors=symbol_errors[j],
            carrier_bit_errors=bit_errors[j],
            stego_symbols_sent=runs[j].stop - runs[j].start,
            stego_symbol_errors=np.count_nonzero(stego_wrong[runs[j]]),
            stego_exact_count=np.count_nonzero(exact[runs[j]]),
        )
        for j, config in enumerate(configs)
    ]
