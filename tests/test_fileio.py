import struct
import tracemalloc

import numpy as np
import pytest

from dsss_stego.fileio import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    ChipStreamFormatError,
    read_chip_stream,
    write_chip_stream,
)


def test_header_is_13_bytes_and_single_symbol_file_is_17(tmp_path):
    path = tmp_path / "one.chips"
    write_chip_stream(path, np.array([0xFFFFFFFF], dtype=np.uint32))
    assert HEADER_SIZE == 13
    assert path.stat().st_size == 17


def test_empty_stream_is_header_only(tmp_path):
    path = tmp_path / "empty.chips"
    write_chip_stream(path, np.zeros(0, dtype=np.uint32))
    raw = path.read_bytes()
    assert raw == MAGIC + bytes([VERSION]) + struct.pack("<Q", 0)
    assert read_chip_stream(path).shape == (0,)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    words = rng.integers(0, 1 << 32, 257, dtype=np.uint32)
    path = tmp_path / "stream.chips"
    write_chip_stream(path, words)
    assert path.stat().st_size == 13 + 4 * 257
    assert (read_chip_stream(path) == words).all()
    write_chip_stream(path, words[::2])  # a strided view writes its values, not its buffer
    assert path.stat().st_size == 13 + 4 * 129
    assert (read_chip_stream(path) == words[::2]).all()


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_and_write_peak_near_the_file_size(tmp_path):
    # the bytes of the words are the file's bytes bit-reversed: no byte per chip
    words = np.random.default_rng(2).integers(0, 1 << 32, 100_000, dtype=np.uint32)
    path = tmp_path / "big.chips"
    _, write_peak = _traced_peak(lambda: write_chip_stream(path, words))
    size = path.stat().st_size
    read, read_peak = _traced_peak(lambda: read_chip_stream(path))
    assert (read == words).all()
    assert write_peak <= 2.5 * size
    assert read_peak <= 2.5 * size


def test_chip_zero_is_msb_of_first_payload_byte(tmp_path):
    words = np.array([1], dtype=np.uint32)  # chip 0 is bit 0 of the word
    path = tmp_path / "msb.chips"
    write_chip_stream(path, words)
    assert path.read_bytes()[HEADER_SIZE] == 0b1000_0000


def test_bad_magic_names_offset_zero(tmp_path):
    path = tmp_path / "bad.chips"
    path.write_bytes(b"JUNK" + bytes([VERSION]) + struct.pack("<Q", 0))
    with pytest.raises(ChipStreamFormatError, match=r"at byte 0\)") as err:
        read_chip_stream(path)
    assert err.value.offset == 0


def test_bad_version_names_offset_four(tmp_path):
    path = tmp_path / "bad.chips"
    path.write_bytes(MAGIC + bytes([9]) + struct.pack("<Q", 0))
    with pytest.raises(ChipStreamFormatError, match="at byte 4"):
        read_chip_stream(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.chips"
    path.write_bytes(MAGIC + bytes([VERSION]))
    with pytest.raises(ChipStreamFormatError, match="truncated header"):
        read_chip_stream(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.chips"
    path.write_bytes(MAGIC + bytes([VERSION]) + struct.pack("<Q", 2) + b"\x00" * 5)
    with pytest.raises(ChipStreamFormatError, match="payload holds 5 bytes"):
        read_chip_stream(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.chips"
    path.write_bytes(MAGIC + bytes([VERSION]) + struct.pack("<Q", 1) + b"\x00" * 6)
    with pytest.raises(ChipStreamFormatError, match=f"at byte {13 + 4}"):
        read_chip_stream(path)


def test_write_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError):
        write_chip_stream(tmp_path / "x", np.zeros((4, 16), dtype=np.uint32))
