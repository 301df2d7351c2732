"""Chip-stream file format.

Layout: 4-byte magic "CHIP", 1 version byte, symbol count as an unsigned
8-byte little-endian integer, then the packed chips (32 per symbol, chip
0 of symbol 0 in the most significant bit of payload byte 0).  A symbol
occupies exactly 4 payload bytes, so a valid file is 13 + 4*N bytes.

A word keeps chip i at bit i, so a symbol's 4 payload bytes are its word's
little-endian bytes, each with its bits reversed.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .chipmap import CHIPS_PER_SYMBOL, REVERSED_BITS

MAGIC = b"CHIP"
VERSION = 1
HEADER_SIZE = 13
_BYTES_PER_SYMBOL = CHIPS_PER_SYMBOL // 8


class ChipStreamFormatError(ValueError):
    """Malformed chip-stream file; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def write_chip_stream(path: str | Path, words: np.ndarray) -> None:
    """Write (N,) uint32 chip words (chip i at bit i) as a chip-stream file."""
    words = np.asarray(words)
    if words.ndim != 1 or words.dtype != np.uint32:
        raise ValueError(f"expected (N,) uint32 chip words, got {words.dtype} {words.shape}")
    header = MAGIC + bytes([VERSION]) + struct.pack("<Q", words.size)
    with Path(path).open("wb") as out:
        out.write(header)
        out.write(words.astype("<u4", copy=False).tobytes().translate(REVERSED_BITS))


def read_chip_stream(path: str | Path) -> np.ndarray:
    """The (N,) uint32 chip words of a chip-stream file; ChipStreamFormatError if malformed."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        raise ChipStreamFormatError(
            f"truncated header: {len(raw)} of {HEADER_SIZE} bytes", len(raw)
        )
    if raw[:4] != MAGIC:
        raise ChipStreamFormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}", 0)
    if raw[4] != VERSION:
        raise ChipStreamFormatError(f"unsupported version {raw[4]}", 4)
    (count,) = struct.unpack("<Q", raw[5:HEADER_SIZE])
    expected = count * _BYTES_PER_SYMBOL
    size = len(raw) - HEADER_SIZE
    if size < expected:
        raise ChipStreamFormatError(
            f"payload holds {size} bytes, header promises {expected}", HEADER_SIZE + size
        )
    if size > expected:
        raise ChipStreamFormatError(
            f"{size - expected} trailing bytes after chip payload", HEADER_SIZE + expected
        )
    raw = raw.translate(REVERSED_BITS)  # rebound, so the file's bytes are let go before the copy
    return np.frombuffer(raw, "<u4", offset=HEADER_SIZE).astype(np.uint32)  # aligned, writable
