"""Block-bounded compression of cache lines (paper Figure 1).

The CCRP compresses each 32-byte instruction-cache line independently so
that the refill engine can decompress any line in isolation.  Compressed
blocks start on an addressable boundary — byte aligned for the best
compression or word aligned to simplify the fetch hardware — and a line
that does not compress below its original size is stored verbatim (the
paper's two-code scheme where the second "code" is the identity), so no
block ever grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError
from repro.compression.huffman import HuffmanCode

#: The paper's instruction-cache line size.
DEFAULT_LINE_SIZE = 32

BYTE_ALIGNED = 1
WORD_ALIGNED = 4


@dataclass(frozen=True)
class CompressedBlock:
    """One cache line after block-bounded compression.

    Attributes:
        data: The stored bytes, already padded to the alignment boundary.
        is_compressed: False if the bypass path stored the line verbatim.
        bit_length: Exact number of encoded bits (before padding); for a
            bypass block this is simply 8 × line size.
        symbol_bits: Encoded length in bits of each original byte — the
            refill-decoder timing model replays these.  ``None`` for
            bypass blocks (they skip the decoder).
    """

    data: bytes
    is_compressed: bool
    bit_length: int
    symbol_bits: tuple[int, ...] | None

    @property
    def stored_size(self) -> int:
        """Bytes this block occupies in instruction memory."""
        return len(self.data)


@dataclass(frozen=True)
class BlockArrays:
    """Columnar numpy view of a block sequence for the vectorized kernels.

    Attributes:
        stored_sizes: Stored bytes of every block, in block order.
        compressed: Boolean mask of blocks that went through the encoder.
        symbol_bits: Per-byte encoded bit lengths of the *compressed*
            blocks only, one row per block in block order — rectangular
            because every compressed block covers exactly one full line.
    """

    stored_sizes: np.ndarray
    compressed: np.ndarray
    symbol_bits: np.ndarray


def build_block_arrays(
    blocks: tuple[CompressedBlock, ...] | list[CompressedBlock], line_size: int
) -> BlockArrays | None:
    """Build the columnar view, or ``None`` when blocks are not uniform.

    Block-bounded compression always produces full-line blocks, so the
    ``None`` case (a compressed block whose symbol count differs from the
    line size) only arises for hand-built block lists; callers fall back
    to the scalar per-block loops.
    """
    count = len(blocks)
    stored_sizes = np.fromiter(
        (block.stored_size for block in blocks), dtype=np.int64, count=count
    )
    compressed = np.fromiter(
        (block.is_compressed for block in blocks), dtype=bool, count=count
    )
    rows = [block.symbol_bits for block in blocks if block.is_compressed]
    if any(row is None or len(row) != line_size for row in rows):
        return None
    symbol_bits = (
        np.array(rows, dtype=np.int64)
        if rows
        else np.zeros((0, line_size), dtype=np.int64)
    )
    return BlockArrays(
        stored_sizes=stored_sizes, compressed=compressed, symbol_bits=symbol_bits
    )


class BlockCompressor:
    """Compresses a program text segment line by line.

    Args:
        code: The Huffman code shared by compressor and refill decoder.
        line_size: Cache-line size in bytes (32 in the paper).
        alignment: Boundary compressed blocks are padded to; use
            ``BYTE_ALIGNED`` (1) or ``WORD_ALIGNED`` (4).
    """

    def __init__(
        self,
        code: HuffmanCode,
        line_size: int = DEFAULT_LINE_SIZE,
        alignment: int = BYTE_ALIGNED,
    ) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise CompressionError(f"line size {line_size} is not a power of two")
        if alignment not in (BYTE_ALIGNED, WORD_ALIGNED):
            raise CompressionError(f"alignment must be 1 or 4, got {alignment}")
        self.code = code
        self.line_size = line_size
        self.alignment = alignment

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------

    def compress_line(self, line: bytes) -> CompressedBlock:
        """Compress one full cache line, applying the bypass rule."""
        if len(line) != self.line_size:
            raise CompressionError(
                f"line must be exactly {self.line_size} bytes, got {len(line)}"
            )
        encoded, bit_length = self.code.encode(line)
        stored = self._pad(encoded)
        if len(stored) >= self.line_size:
            return CompressedBlock(
                data=bytes(line),
                is_compressed=False,
                bit_length=8 * self.line_size,
                symbol_bits=None,
            )
        return CompressedBlock(
            data=stored,
            is_compressed=True,
            bit_length=bit_length,
            symbol_bits=tuple(self.code.symbol_bit_lengths(line)),
        )

    def compress_program(self, text: bytes) -> list[CompressedBlock]:
        """Split ``text`` into lines (zero-padding the tail) and compress.

        Padding the final partial line with zero bytes mirrors linkers
        padding a text segment to its alignment; zeros are the most common
        byte in RISC code and compress extremely well.

        All lines are encoded in one vectorized pass; the result is
        identical, line for line, to mapping :meth:`compress_line`.
        """
        line_size = self.line_size
        remainder = len(text) % line_size
        if remainder:
            text = text + bytes(line_size - remainder)
        batch = self.code.encode_lines(text, line_size)
        if batch is None:  # >64-bit code words: scalar per-line fallback
            return [
                self.compress_line(text[offset : offset + line_size])
                for offset in range(0, len(text), line_size)
            ]
        encoded_lines, line_bits = batch
        # One gather for every line's per-byte code lengths.
        all_symbol_bits = self.code.symbol_bit_lengths(text)
        bit_totals = line_bits.tolist()
        blocks: list[CompressedBlock] = []
        for index, encoded in enumerate(encoded_lines):
            start = index * line_size
            line = text[start : start + line_size]
            stored = self._pad(encoded)
            if len(stored) >= line_size:
                blocks.append(
                    CompressedBlock(
                        data=bytes(line),
                        is_compressed=False,
                        bit_length=8 * line_size,
                        symbol_bits=None,
                    )
                )
            else:
                blocks.append(
                    CompressedBlock(
                        data=stored,
                        is_compressed=True,
                        bit_length=bit_totals[index],
                        symbol_bits=tuple(all_symbol_bits[start : start + line_size]),
                    )
                )
        return blocks

    # ------------------------------------------------------------------
    # Decompression (the refill engine's functional path)
    # ------------------------------------------------------------------

    def decompress_program(self, blocks: list[CompressedBlock]) -> bytes:
        """Expand every block, reconstructing the padded text segment.

        All compressed blocks go through one batch ``decode_lines`` pass;
        bypass blocks are spliced back verbatim.  Output (and the first
        failure, for corrupt streams) is identical to decoding each
        compressed block with ``HuffmanCode.decode``.
        """
        compressed_blobs = [block.data for block in blocks if block.is_compressed]
        decoded = iter(self.code.decode_lines(compressed_blobs, self.line_size))
        return b"".join(
            next(decoded) if block.is_compressed else block.data for block in blocks
        )

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def compressed_size(self, blocks: list[CompressedBlock]) -> int:
        """Instruction-memory bytes occupied by the blocks themselves."""
        return sum(block.stored_size for block in blocks)

    def _pad(self, encoded: bytes) -> bytes:
        if self.alignment == 1 or len(encoded) % self.alignment == 0:
            return encoded
        return encoded + bytes(self.alignment - len(encoded) % self.alignment)
