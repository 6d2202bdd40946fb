"""Tests for the LZW (compress-style) codec and block-bounded compression."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompressionError
from repro.compression.block import (
    BYTE_ALIGNED,
    WORD_ALIGNED,
    BlockCompressor,
)
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.compression.lzw import (
    HEADER_BYTES,
    lzw_compress,
    lzw_decompress,
)


class TestLZW:
    def test_round_trip_text(self):
        data = b"tobeornottobetobeornottobe" * 20
        assert lzw_decompress(lzw_compress(data)) == data

    def test_round_trip_binary(self):
        data = bytes(random.Random(7).randbytes(5000))
        assert lzw_decompress(lzw_compress(data)) == data

    def test_round_trip_repetitive_kwkwk_case(self):
        data = b"aaaaaaaaaaaaaaaaaaaaaaaa"
        assert lzw_decompress(lzw_compress(data)) == data

    def test_empty_input(self):
        blob = lzw_compress(b"")
        assert len(blob) == HEADER_BYTES
        assert lzw_decompress(blob) == b""

    def test_single_byte(self):
        assert lzw_decompress(lzw_compress(b"x")) == b"x"

    def test_compresses_repetitive_data(self):
        data = b"abcd" * 1000
        assert len(lzw_compress(data)) < len(data) // 4

    def test_random_data_does_not_explode(self):
        data = bytes(random.Random(8).randbytes(4096))
        # LZW on incompressible data costs at most ~ 2x in the 9-bit region.
        assert len(lzw_compress(data)) < len(data) * 2

    def test_header_charged(self):
        assert lzw_compress(b"a") != lzw_compress(b"a")[HEADER_BYTES:]

    def test_max_bits_validation(self):
        with pytest.raises(CompressionError):
            lzw_compress(b"abc", max_bits=5)

    def test_round_trip_beyond_table_freeze(self):
        # Force dictionary saturation at a small width to hit the frozen path.
        data = bytes(random.Random(9).randbytes(3000))
        blob = lzw_compress(data, max_bits=9)
        assert lzw_decompress(blob, max_bits=9) == data

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=2000))
    def test_property_round_trip(self, data):
        assert lzw_decompress(lzw_compress(data)) == data

    def test_first_code_past_the_byte_alphabet_is_typed(self):
        # Flipping the top bit of the first 9-bit code turns it into 360,
        # a code no dictionary holds before the second one is read.
        blob = bytearray(lzw_compress(b"hello world hello world"))
        blob[HEADER_BYTES] ^= 0x80
        with pytest.raises(CompressionError, match="code 360"):
            lzw_decompress(bytes(blob))

    @pytest.mark.parametrize("max_bits", [8, 25])
    def test_decompress_rejects_max_bits_out_of_range(self, max_bits):
        with pytest.raises(CompressionError, match="out of supported range"):
            lzw_decompress(lzw_compress(b"abc"), max_bits=max_bits)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.builds(
                lambda data, flips: _flip_bits(lzw_compress(data), flips),
                st.binary(min_size=1, max_size=200),
                st.lists(st.integers(0, 10_000), max_size=4),
            ),
            st.builds(
                lambda data, keep: lzw_compress(data)[: HEADER_BYTES + keep],
                st.binary(min_size=1, max_size=200),
                st.integers(0, 200),
            ),
        ),
        st.integers(9, 16),
    )
    def test_arbitrary_payload_is_bytes_or_typed_error(self, blob, max_bits):
        """Corrupt, truncated or empty payloads never leak a foreign error."""
        try:
            decoded = lzw_decompress(blob, max_bits=max_bits)
        except CompressionError:
            return
        assert isinstance(decoded, bytes)


def _flip_bits(blob: bytes, flips: list[int]) -> bytes:
    """``blob`` with the given payload bit offsets (mod its size) inverted."""
    mutated = bytearray(blob)
    payload_bits = (len(mutated) - HEADER_BYTES) * 8
    for flip in flips:
        bit = flip % payload_bits
        mutated[HEADER_BYTES + bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(mutated)


def _code_for(data: bytes, max_length: int = 16) -> HuffmanCode:
    return HuffmanCode.from_frequencies(
        byte_histogram(data), max_length=max_length, cover_all_symbols=True
    )


class TestBlockCompressor:
    def test_round_trip_program(self):
        data = bytes(random.Random(10).choices(range(32), k=4096))
        compressor = BlockCompressor(_code_for(data))
        blocks = compressor.compress_program(data)
        assert compressor.decompress_program(blocks) == data

    def test_tail_padding(self):
        data = b"\x01" * 40  # 1.25 lines
        compressor = BlockCompressor(_code_for(data))
        blocks = compressor.compress_program(data)
        assert len(blocks) == 2
        restored = compressor.decompress_program(blocks)
        assert restored[:40] == data
        assert restored[40:] == bytes(24)

    def test_compressible_line_shrinks(self):
        data = b"\x00" * 32
        compressor = BlockCompressor(_code_for(b"\x00" * 100 + bytes(range(256))))
        block = compressor.compress_line(data)
        assert block.is_compressed
        assert block.stored_size < 32
        assert 1 <= block.stored_size <= 31

    def test_incompressible_line_bypassed(self):
        line = bytes(range(32))
        # A code trained on different data gives these bytes long codes.
        histogram = [0] * 256
        histogram[255] = 10_000
        code = HuffmanCode.from_frequencies(histogram, max_length=16, cover_all_symbols=True)
        block = BlockCompressor(code).compress_line(line)
        assert not block.is_compressed
        assert block.data == line
        assert block.stored_size == 32

    def test_no_block_ever_grows(self):
        rng = random.Random(11)
        code = _code_for(bytes(rng.randbytes(512)))
        compressor = BlockCompressor(code)
        for _ in range(50):
            line = bytes(rng.randbytes(32))
            assert compressor.compress_line(line).stored_size <= 32

    def test_word_alignment_pads_to_multiple_of_four(self):
        data = b"\x00" * 320
        code = _code_for(data + bytes(range(256)))
        blocks = BlockCompressor(code, alignment=WORD_ALIGNED).compress_program(data)
        assert all(block.stored_size % 4 == 0 for block in blocks)

    def test_byte_alignment_never_larger_than_word_alignment(self):
        data = bytes(random.Random(12).choices(range(64), k=2048))
        code = _code_for(data)
        byte_blocks = BlockCompressor(code, alignment=BYTE_ALIGNED).compress_program(data)
        word_blocks = BlockCompressor(code, alignment=WORD_ALIGNED).compress_program(data)
        byte_size = sum(block.stored_size for block in byte_blocks)
        word_size = sum(block.stored_size for block in word_blocks)
        assert byte_size <= word_size

    def test_symbol_bits_present_only_when_compressed(self):
        data = b"\x00" * 32
        code = _code_for(b"\x00" * 100)
        block = BlockCompressor(code).compress_line(data)
        assert block.symbol_bits is not None
        assert len(block.symbol_bits) == 32
        assert sum(block.symbol_bits) == block.bit_length

    def test_wrong_line_size_rejected(self):
        code = _code_for(b"\x00\x01")
        with pytest.raises(CompressionError):
            BlockCompressor(code).compress_line(b"\x00" * 16)

    def test_bad_line_size_config_rejected(self):
        code = _code_for(b"\x00\x01")
        with pytest.raises(CompressionError):
            BlockCompressor(code, line_size=33)

    def test_bad_alignment_rejected(self):
        code = _code_for(b"\x00\x01")
        with pytest.raises(CompressionError):
            BlockCompressor(code, alignment=2)

    def test_compressed_size_accounting(self):
        data = b"\x00" * 128
        code = _code_for(b"\x00" * 100)
        compressor = BlockCompressor(code)
        blocks = compressor.compress_program(data)
        assert compressor.compressed_size(blocks) == sum(b.stored_size for b in blocks)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=512))
    def test_property_round_trip_any_data(self, data):
        code = _code_for(data)
        compressor = BlockCompressor(code)
        blocks = compressor.compress_program(data)
        restored = compressor.decompress_program(blocks)
        assert restored[: len(data)] == data
        assert all(block.stored_size <= 32 for block in blocks)
