"""Property tests of the chip-file path: the format parser and the codec round trip.

The examples are derandomized and bounded, so every run checks the same
cases and the suite stays quick.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsss_stego.fileio import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    ChipStreamFormatError,
    read_chip_stream,
    write_chip_stream,
)
from dsss_stego.pipeline import decode_stream, embedding_schedule, encode_stream
from dsss_stego.stego import StegoKey

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

words_arrays = arrays(np.uint32, st.integers(0, 40))


@pytest.fixture(scope="module")
def chip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("chipfiles") / "stream.chips"


def header(count: int, magic: bytes = MAGIC, version: int = VERSION) -> bytes:
    return magic + bytes([version]) + struct.pack("<Q", count)


def read_error(path, raw: bytes) -> ChipStreamFormatError:
    path.write_bytes(raw)
    with pytest.raises(ChipStreamFormatError) as err:
        read_chip_stream(path)
    assert 0 <= err.value.offset <= len(raw)
    assert f"(at byte {err.value.offset})" in str(err.value)
    return err.value


@PROPERTY
@given(words=words_arrays)
def test_write_then_read_is_identity(chip_path, words):
    write_chip_stream(chip_path, words)
    assert chip_path.stat().st_size == HEADER_SIZE + 4 * words.size
    back = read_chip_stream(chip_path)
    assert back.dtype == np.uint32
    assert back.tolist() == words.tolist()


@PROPERTY
@given(words=arrays(np.uint32, st.integers(0, 6)))
def test_truncation_at_every_offset_is_rejected(chip_path, words):
    write_chip_stream(chip_path, words)
    raw = chip_path.read_bytes()
    for end in range(len(raw)):
        err = read_error(chip_path, raw[:end])
        assert err.offset == end  # the first missing byte


@PROPERTY
@given(
    magic=st.binary(min_size=4, max_size=4).filter(lambda m: m != MAGIC),
    count=st.integers(0, 3),
)
def test_bad_magic_is_rejected_at_byte_zero(chip_path, magic, count):
    assert read_error(chip_path, header(count, magic=magic) + bytes(4 * count)).offset == 0


@PROPERTY
@given(version=st.integers(0, 255).filter(lambda v: v != VERSION), count=st.integers(0, 3))
def test_bad_version_is_rejected_at_byte_four(chip_path, version, count):
    assert read_error(chip_path, header(count, version=version) + bytes(4 * count)).offset == 4


@PROPERTY
@given(count=st.integers(0, 2**64 - 1), payload=st.binary(max_size=64))
def test_count_disagreeing_with_payload_is_rejected(chip_path, count, payload):
    expected = 4 * count
    raw = header(count) + payload
    if len(payload) == expected:  # agreeing: a valid file
        chip_path.write_bytes(raw)
        assert read_chip_stream(chip_path).size == count
        return
    err = read_error(chip_path, raw)
    if len(payload) < expected:
        assert err.offset == len(raw) and "header promises" in str(err)
    else:  # trailing bytes start right after the promised payload
        assert err.offset == HEADER_SIZE + expected and "trailing bytes" in str(err)


@PROPERTY
@given(
    num_symbols=st.integers(1, 120),
    seed=st.integers(1, 0xFFFF),
    rate=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    data=st.data(),
)
def test_noiseless_decode_inverts_encode(num_symbols, seed, rate, data):
    key = StegoKey(seed)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="payload seed"))
    data_bits = rng.integers(0, 2, 4 * num_symbols, dtype=np.uint8)
    capacity = 4 * int(embedding_schedule(key, rate, num_symbols).sum())
    covert_size = data.draw(st.integers(0, capacity), label="covert bits")
    stego_bits = rng.integers(0, 2, covert_size, dtype=np.uint8)
    decoded = decode_stream(encode_stream(data_bits, stego_bits, key, rate), key, rate)
    assert decoded.data_bits.tolist() == data_bits.tolist()
    # 4 bits per scheduled slot: the payload, then zeros for the slots it left clean
    assert decoded.stego_bits.size == capacity
    assert decoded.stego_bits[: stego_bits.size].tolist() == stego_bits.tolist()
    assert not decoded.stego_bits[stego_bits.size :].any()
