"""Memoryless binary-symmetric chip channel with reproducible noise."""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .chipmap import BLOCK_WORDS, CHIPS_PER_SYMBOL, ChipSequence, pack_chips

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
    if not 0.0 < snr_linear:
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

    The draw is made a block of ``BLOCK_WORDS`` words at a time by
    ``min(usable cores, N // BLOCK_WORDS)`` threads, this one among them.
    Each takes the next undrawn block until none is left, so a core that
    runs slower draws fewer blocks.  A thread draws from its own copy of
    ``rng`` (this thread from ``rng`` itself), moved on with PCG64's
    ``advance(32 * block start)`` whenever it skips blocks other threads
    drew.  That lands exactly on the double one sequential draw gives the
    block's first chip, so the flips equal one (N, 32) draw whatever the
    thread count, and ``rng`` is left in the state that draw would leave.
    Each thread draws ``BLOCK_WORDS // threads`` words at a time into its
    share of one block's buffers, so the draw still holds one block's
    doubles (1 MiB) in all.  A stream under two blocks, a single core or
    another bit generator takes one thread: this one, in stream order.
    """
    if params.p_chip == 0.0:
        return words.copy(), 0
    jumpable = type(rng.bit_generator) is np.random.PCG64
    threads = max(1, min(_usable_cores(), len(words) // BLOCK_WORDS)) if jumpable else 1
    flips = np.empty(len(words), dtype=np.uint32)
    _draw_blocks(flips, rng, params.p_chip, threads)
    return words ^ flips, int(np.bitwise_count(flips).sum())


@functools.cache
def _usable_cores() -> int:
    """The cores this process may run on, read once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _jumped(state: dict, doubles: int) -> np.random.Generator:
    """A new generator at PCG64 ``state`` moved on by ``doubles`` doubles."""
    bit_generator = np.random.PCG64(0)  # the seed is a placeholder: the state is replaced
    bit_generator.state = state
    return np.random.Generator(bit_generator.advance(doubles))


def _draw_blocks(flips: np.ndarray, rng: np.random.Generator, p_chip: float, count: int):
    """Fill ``flips`` a block at a time on ``count`` threads, this one among them."""
    start = rng.bit_generator.state if count > 1 else None  # only other threads need it
    rngs = [rng] + [_jumped(start, 0) for _ in range(count - 1)]
    # allocated here, not in the workers, and freed on return, before the caller's XOR
    draws = np.empty((count, min(BLOCK_WORDS // count, len(flips)) or 1, CHIPS_PER_SYMBOL))
    below = np.empty(draws.shape, dtype=bool)
    blocks, lock, errors = iter(range(0, len(flips), BLOCK_WORDS)), threading.Lock(), []

    def work(k):
        at = 0  # the word whose first chip this thread's generator draws next
        try:
            while not errors:
                with lock:
                    block = next(blocks, None)
                if block is None:
                    return
                if block > at:
                    rngs[k].bit_generator.advance(CHIPS_PER_SYMBOL * (block - at))
                at = block + BLOCK_WORDS
                _draw_block(flips[block:at], rngs[k], p_chip, draws[k], below[k])
        except BaseException as exc:  # raised again in the calling thread below
            errors.append(exc)

    threads = []
    try:
        for k in range(1, count):
            thread = threading.Thread(target=work, args=(k,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    if count > 1:
        # rng goes on after the last double.  random() neither reads nor sets
        # the buffered 32-bit half, which advance() clears, so it is put back.
        end = _jumped(start, CHIPS_PER_SYMBOL * len(flips)).bit_generator.state
        rng.bit_generator.state = {**start, "state": end["state"]}


def _draw_block(
    flips: np.ndarray, rng: np.random.Generator, p_chip: float, draws: np.ndarray, below: np.ndarray
):
    """Pack one block's flips, ``len(draws)`` words a draw; Generator.random and np.less
    release the GIL, so other threads draw their blocks at the same time."""
    rows = len(draws)
    for start in range(0, len(flips), rows):
        chunk = flips[start : start + rows]
        uniform, hit = draws[: len(chunk)], below[: len(chunk)]
        rng.random(out=uniform)
        np.less(uniform, p_chip, out=hit)
        chunk[:] = pack_chips(hit)


def transmit(
    seq: ChipSequence, params: ChannelParams, rng: np.random.Generator
) -> ChipSequence:
    out, _ = transmit_stream(np.array([seq.word], dtype=np.uint32), params, rng)
    return ChipSequence(int(out[0]))
