"""Multiple-code block compression (paper Section 2.2, last paragraph).

"One possibility is to preselect multiple codes and to use the one that
provides the best compression for each instruction block.  This would
require a small tag that describes which code is used for each block and
that the decode hardware can decompress multiple codes. […] A special
case of the multiple code approach is to use two codes where one is a
Preselected Bounded Huffman code and the other is the original block
encoding."

The CCRP core (:mod:`repro.ccrp`) implements that special case — the
bypass.  This module implements the general scheme: N preselected codes
plus the identity, a per-block tag choosing among them, and a greedy
corpus-partitioning trainer ("the generation of sets of Huffman codes …
is very computationally complex, however … only a good solution, not an
optimal one, is required").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CompressionError
from repro.compression.block import DEFAULT_LINE_SIZE
from repro.compression.histogram import byte_histogram, merge_histograms
from repro.compression.huffman import HuffmanCode


@dataclass(frozen=True)
class MultiCodeBlock:
    """One cache line compressed under a code set.

    Attributes:
        code_index: Which code encoded this block; ``None`` marks the
            identity (uncompressed) choice.
        data: Stored bytes (tag excluded; tags live in the LAT-side
            metadata, like the paper's bypass flag).
        bit_length: Exact encoded bits.
    """

    code_index: int | None
    data: bytes
    bit_length: int

    @property
    def stored_size(self) -> int:
        return len(self.data)

    @property
    def is_compressed(self) -> bool:
        return self.code_index is not None


class MultiCodeCompressor:
    """Block compressor choosing the best of several preselected codes.

    Args:
        codes: The decoder's wired-in code set (2-8 codes is realistic
            hardware; the tag needs ``ceil(log2(len(codes) + 1))`` bits
            per block including the identity choice).
        line_size: Cache-line size in bytes.
    """

    def __init__(self, codes: list[HuffmanCode], line_size: int = DEFAULT_LINE_SIZE) -> None:
        if not codes:
            raise CompressionError("need at least one code")
        self.codes = list(codes)
        self.line_size = line_size

    @property
    def tag_bits(self) -> int:
        """Per-block tag width, identity included."""
        return max(1, math.ceil(math.log2(len(self.codes) + 1)))

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------

    def compress_line(self, line: bytes) -> MultiCodeBlock:
        """Encode ``line`` with whichever code stores fewest bytes."""
        if len(line) != self.line_size:
            raise CompressionError(f"line must be {self.line_size} bytes")
        best: MultiCodeBlock | None = None
        for index, code in enumerate(self.codes):
            try:
                bits = code.encoded_bit_length(line)
            except CompressionError:
                continue  # this code cannot express some byte in the line
            stored = (bits + 7) // 8
            if stored < self.line_size and (best is None or stored < best.stored_size):
                encoded, bit_length = code.encode(line)
                best = MultiCodeBlock(code_index=index, data=encoded, bit_length=bit_length)
        if best is None:
            return MultiCodeBlock(
                code_index=None, data=bytes(line), bit_length=8 * self.line_size
            )
        return best

    def compress_program(self, text: bytes) -> list[MultiCodeBlock]:
        """Compress a text segment line by line (zero-padded tail)."""
        remainder = len(text) % self.line_size
        if remainder:
            text = text + bytes(self.line_size - remainder)
        return [
            self.compress_line(text[offset : offset + self.line_size])
            for offset in range(0, len(text), self.line_size)
        ]

    def decompress_block(self, block: MultiCodeBlock) -> bytes:
        """Decode one block; a tag that names no code is a
        :class:`CompressionError`, like any other corrupt input."""
        index = block.code_index
        if index is None:
            return block.data
        if not 0 <= index < len(self.codes):
            raise CompressionError(
                f"code tag {index} names no code (the set has {len(self.codes)})"
            )
        return self.codes[index].decode(block.data, self.line_size)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def compressed_size(self, blocks: list[MultiCodeBlock]) -> int:
        """Stored bytes including the per-block tags (rounded up once)."""
        payload = sum(block.stored_size for block in blocks)
        tags = (len(blocks) * self.tag_bits + 7) // 8
        return payload + tags

    def code_usage(self, blocks: list[MultiCodeBlock]) -> dict[int | None, int]:
        """How many blocks each code won (None = identity/bypass)."""
        usage: dict[int | None, int] = {}
        for block in blocks:
            usage[block.code_index] = usage.get(block.code_index, 0) + 1
        return usage


def train_code_set(
    corpus: list[bytes],
    code_count: int = 2,
    max_length: int = 16,
    line_size: int = DEFAULT_LINE_SIZE,
    refinement_rounds: int = 3,
) -> list[HuffmanCode]:
    """Greedy k-codes training: partition corpus lines among codes.

    A Lloyd-style refinement: start from one global code plus codes
    trained on the worst-compressed lines, then repeatedly (a) assign
    every line to the code that encodes it shortest and (b) retrain each
    code on its assigned lines.  Good, not optimal — per the paper.
    """
    if code_count < 1:
        raise CompressionError("code_count must be at least 1")
    lines: list[bytes] = []
    for text in corpus:
        remainder = len(text) % line_size
        if remainder:
            text = text + bytes(line_size - remainder)
        lines.extend(text[offset : offset + line_size] for offset in range(0, len(text), line_size))
    if not lines:
        raise CompressionError("empty corpus")

    def build(selected: list[bytes]) -> HuffmanCode:
        histogram = merge_histograms([byte_histogram(line) for line in selected] or [byte_histogram(b"\0")])
        return HuffmanCode.from_frequencies(histogram, max_length=max_length, cover_all_symbols=True)

    codes = [build(lines)]
    while len(codes) < code_count:
        # Seed the next code from the lines the current set handles worst.
        worst = sorted(
            lines,
            key=lambda line: min(code.encoded_bit_length(line) for code in codes),
            reverse=True,
        )[: max(1, len(lines) // (len(codes) + 1))]
        codes.append(build(worst))
    for _ in range(refinement_rounds):
        assignments: list[list[bytes]] = [[] for _ in codes]
        for line in lines:
            best = min(range(len(codes)), key=lambda i: codes[i].encoded_bit_length(line))
            assignments[best].append(line)
        codes = [
            build(assigned) if assigned else code
            for code, assigned in zip(codes, assignments)
        ]
    return codes
