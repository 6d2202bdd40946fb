"""Tests for the multiple-preselected-code compression scheme."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.compression.multicode import (
    MultiCodeBlock,
    MultiCodeCompressor,
    train_code_set,
)

from huffman_oracle import oracle_outcome


def code_for(data: bytes) -> HuffmanCode:
    return HuffmanCode.from_frequencies(
        byte_histogram(data), max_length=16, cover_all_symbols=True
    )


@pytest.fixture(scope="module")
def bimodal_corpus():
    """Two populations of lines with very different byte statistics."""
    rng = random.Random(40)
    zeros_like = [bytes(rng.choices(range(8), k=32)) for _ in range(64)]
    highs_like = [bytes(rng.choices(range(200, 256), k=32)) for _ in range(64)]
    return zeros_like, highs_like


class TestMultiCodeCompressor:
    def test_picks_the_better_code_per_line(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        code_low = code_for(b"".join(zeros_like))
        code_high = code_for(b"".join(highs_like))
        compressor = MultiCodeCompressor([code_low, code_high])
        low_block = compressor.compress_line(zeros_like[0])
        high_block = compressor.compress_line(highs_like[0])
        assert low_block.code_index == 0
        assert high_block.code_index == 1

    def test_identity_fallback_for_incompressible_line(self):
        histogram = [0] * 256
        histogram[0] = 1_000_000
        code = HuffmanCode.from_frequencies(histogram, max_length=16, cover_all_symbols=True)
        compressor = MultiCodeCompressor([code])
        block = compressor.compress_line(bytes(range(200, 232)))
        assert block.code_index is None
        assert block.stored_size == 32

    def test_round_trip(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        codes = [code_for(b"".join(zeros_like)), code_for(b"".join(highs_like))]
        compressor = MultiCodeCompressor(codes)
        blocks = compressor.compress_program(text)
        restored = b"".join(compressor.decompress_block(block) for block in blocks)
        assert restored[: len(text)] == text

    def test_two_codes_beat_one_on_bimodal_data(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        merged = code_for(text)
        single = MultiCodeCompressor([merged])
        double = MultiCodeCompressor(
            [code_for(b"".join(zeros_like)), code_for(b"".join(highs_like))]
        )
        single_size = single.compressed_size(single.compress_program(text))
        double_size = double.compressed_size(double.compress_program(text))
        assert double_size < single_size

    def test_tag_bits_grow_with_code_count(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        code = code_for(b"".join(zeros_like))
        assert MultiCodeCompressor([code]).tag_bits == 1
        assert MultiCodeCompressor([code] * 3).tag_bits == 2
        assert MultiCodeCompressor([code] * 7).tag_bits == 3

    def test_compressed_size_includes_tags(self, bimodal_corpus):
        zeros_like, _ = bimodal_corpus
        text = b"".join(zeros_like)
        compressor = MultiCodeCompressor([code_for(text)])
        blocks = compressor.compress_program(text)
        payload = sum(block.stored_size for block in blocks)
        assert compressor.compressed_size(blocks) == payload + (len(blocks) + 7) // 8

    def test_code_usage_accounting(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        compressor = MultiCodeCompressor(
            [code_for(b"".join(zeros_like)), code_for(b"".join(highs_like))]
        )
        usage = compressor.code_usage(compressor.compress_program(text))
        assert usage.get(0, 0) >= 60 and usage.get(1, 0) >= 60

    def test_empty_code_list_rejected(self):
        with pytest.raises(CompressionError):
            MultiCodeCompressor([])

    def test_wrong_line_size_rejected(self, bimodal_corpus):
        zeros_like, _ = bimodal_corpus
        compressor = MultiCodeCompressor([code_for(zeros_like[0])])
        with pytest.raises(CompressionError):
            compressor.compress_line(b"\x00" * 16)


class TestTrainCodeSet:
    def test_trains_requested_count(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        codes = train_code_set([b"".join(zeros_like), b"".join(highs_like)], code_count=2)
        assert len(codes) == 2
        assert all(code.max_length <= 16 for code in codes)

    def test_trained_pair_separates_populations(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        codes = train_code_set([text], code_count=2, refinement_rounds=4)
        compressor = MultiCodeCompressor(codes)
        usage = compressor.code_usage(compressor.compress_program(text))
        # Both trained codes should win a meaningful share of lines.
        shares = [usage.get(index, 0) for index in range(2)]
        assert min(shares) >= 16

    def test_more_codes_never_compress_worse(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        sizes = []
        for count in (1, 2, 4):
            codes = train_code_set([text], code_count=count)
            compressor = MultiCodeCompressor(codes)
            payload = sum(
                block.stored_size for block in compressor.compress_program(text)
            )
            sizes.append(payload)
        assert sizes[1] <= sizes[0]
        assert sizes[2] <= sizes[1] + 32  # refinement is greedy, allow noise

    def test_invalid_inputs(self):
        with pytest.raises(CompressionError):
            train_code_set([b"\x00" * 64], code_count=0)
        with pytest.raises(CompressionError):
            train_code_set([], code_count=1)


# Two codes trained on different byte populations, as in the fixture.
_FUZZ_RNG = random.Random(41)
_FUZZ_CODES = [
    code_for(bytes(_FUZZ_RNG.choices(range(8), k=2048))),
    code_for(bytes(_FUZZ_RNG.choices(range(200, 256), k=2048))),
]
_FUZZ_COMPRESSOR = MultiCodeCompressor(_FUZZ_CODES)


def _outcome(compressor: MultiCodeCompressor, block: MultiCodeBlock) -> bytes | str:
    try:
        return compressor.decompress_block(block)
    except CompressionError as error:
        return str(error)


class TestDecompressFuzz:
    """Corrupt, truncated and empty blobs and out-of-range tags end in the
    decoded bytes or a typed ``CompressionError``, never another error."""

    @pytest.mark.parametrize("tag", [2, 3, -1, -2])
    def test_out_of_range_tag_is_typed(self, tag):
        block = MultiCodeBlock(code_index=tag, data=b"\x00" * 8, bit_length=64)
        with pytest.raises(CompressionError, match=f"code tag {tag}"):
            _FUZZ_COMPRESSOR.decompress_block(block)

    @settings(max_examples=300, deadline=None)
    @given(
        line=st.one_of(
            st.binary(min_size=32, max_size=32),
            st.lists(st.integers(0, 7), min_size=32, max_size=32).map(bytes),
            st.lists(st.integers(200, 255), min_size=32, max_size=32).map(bytes),
        ),
        mutation=st.sampled_from(
            ("none", "flip", "truncate", "empty", "arbitrary", "tag")
        ),
        data=st.data(),
    )
    def test_adversarial_blocks(self, line, mutation, data):
        block = _FUZZ_COMPRESSOR.compress_line(line)
        blob, tag = block.data, block.code_index
        if mutation == "flip" and blob:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            blob = bytearray(blob)
            blob[bit // 8] ^= 0x80 >> (bit % 8)
            blob = bytes(blob)
        elif mutation == "truncate":
            blob = blob[: data.draw(st.integers(0, max(len(blob) - 1, 0)))]
        elif mutation == "empty":
            blob = b""
        elif mutation == "arbitrary":
            blob = data.draw(st.binary(max_size=40))
        elif mutation == "tag":
            tag = data.draw(st.one_of(st.none(), st.integers(-4, 6)))
        outcome = _outcome(
            _FUZZ_COMPRESSOR, dataclasses.replace(block, code_index=tag, data=blob)
        )
        if mutation == "none":
            assert outcome == line
        if tag is None:
            assert outcome == blob
        elif 0 <= tag < len(_FUZZ_CODES):
            assert outcome == oracle_outcome(_FUZZ_CODES[tag], blob, 32)
        else:
            assert outcome == (
                f"code tag {tag} names no code (the set has {len(_FUZZ_CODES)})"
            )
