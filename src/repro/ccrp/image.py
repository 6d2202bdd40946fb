"""Compressed program images: what actually sits in instruction memory.

Layout (paper Figure 4, with the LAT "simply stored in the instruction
memory"):

::

    lat_base:   [ LAT entry 0 ][ LAT entry 1 ] ...
    code_base:  [ block 0 ][ block 1 ][ block 2 ] ...

The refill engine's LAT Base Register points at ``lat_base``; compressed
blocks follow the table immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.block import BlockArrays, CompressedBlock, build_block_arrays
from repro.compression.huffman import HuffmanCode
from repro.errors import LATError
from repro.lat.table import LineAddressTable


@dataclass(frozen=True)
class CompressedImage:
    """A program after CCRP compression, ready for instruction memory.

    Attributes:
        code: The Huffman code the refill decoder is wired for.
        blocks: Compressed blocks in original line order.
        lat: The Line Address Table over ``blocks``.
        text_base: Original (uncompressed) load address of the program.
        lat_base: Physical address of the LAT in instruction memory.
        code_base: Physical address of block 0.
        line_size: Cache-line size in bytes.
        original_size: Unpadded original text-segment size in bytes.
        charge_code_table: Whether stored-size accounting includes a
            256-byte code listing (per-program codes need it; a
            preselected code is hard-wired and free).
        line_crcs: Optional per-line CRC-8 table (one byte per block,
            computed over the *stored* bytes) for refill-time integrity
            checking; ``None`` means no integrity layer.  Charged to the
            stored size exactly like the LAT when present.
    """

    code: HuffmanCode
    blocks: tuple[CompressedBlock, ...]
    lat: LineAddressTable
    text_base: int
    lat_base: int
    code_base: int
    line_size: int
    original_size: int
    charge_code_table: bool = False
    line_crcs: bytes | None = None

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def padded_original_size(self) -> int:
        """Original size rounded up to a whole number of lines."""
        return len(self.blocks) * self.line_size

    @property
    def compressed_code_bytes(self) -> int:
        """Bytes of compressed blocks alone (no LAT, no code table)."""
        return sum(block.stored_size for block in self.blocks)

    @property
    def code_table_bytes(self) -> int:
        """Bytes charged for storing the Huffman code listing."""
        return self.code.table_storage_bytes if self.charge_code_table else 0

    @property
    def integrity_bytes(self) -> int:
        """Bytes of the per-line CRC table (0 without an integrity layer)."""
        return len(self.line_crcs) if self.line_crcs is not None else 0

    @property
    def total_stored_bytes(self) -> int:
        """Everything in instruction memory: blocks + LAT + code table
        + the per-line CRC table, when an integrity layer is present."""
        return (
            self.compressed_code_bytes
            + self.lat.storage_bytes
            + self.code_table_bytes
            + self.integrity_bytes
        )

    @property
    def compression_ratio(self) -> float:
        """Stored size (blocks + code table, no LAT) over original size.

        This is the Figure 5 metric; the LAT overhead is reported
        separately because the paper quotes it separately (3.125 %).
        """
        return (self.compressed_code_bytes + self.code_table_bytes) / self.original_size

    @property
    def total_ratio_with_lat(self) -> float:
        """Stored size including the LAT (and any CRC table), over original size."""
        return self.total_stored_bytes / self.original_size

    @property
    def integrity_overhead_ratio(self) -> float:
        """CRC-table bytes as a fraction of the padded original size.

        One CRC byte per 32-byte line is 3.125 % — the same overhead
        class as the LAT, and reported the same way.  Computed from the
        line count so the *would-be* overhead is quotable even on an
        image built without an integrity layer.
        """
        from repro.faults.integrity import INTEGRITY_BYTES_PER_LINE

        if not self.blocks:
            return 0.0
        return (len(self.blocks) * INTEGRITY_BYTES_PER_LINE) / self.padded_original_size

    @property
    def total_ratio_with_integrity(self) -> float:
        """Stored size with LAT *and* a per-line CRC table, over original.

        Accounts the integrity overhead even when ``line_crcs`` is absent,
        so experiments can quote "what protection would cost" uniformly.
        """
        if self.line_crcs is not None:
            return self.total_ratio_with_lat
        from repro.faults.integrity import INTEGRITY_BYTES_PER_LINE

        extra = len(self.blocks) * INTEGRITY_BYTES_PER_LINE
        return (self.total_stored_bytes + extra) / self.original_size

    # ------------------------------------------------------------------
    # Line bookkeeping
    # ------------------------------------------------------------------

    @property
    def line_count(self) -> int:
        return len(self.blocks)

    def line_index(self, line_number: int) -> int:
        """Translate an absolute line number to a block index.

        Raises :class:`~repro.errors.LATError` for lines outside the
        image — without the check, a line number below ``text_base``
        would go negative and Python indexing would silently hand back a
        block from the *end* of the program.
        """
        base_line = self.text_base // self.line_size
        index = line_number - base_line
        if not 0 <= index < len(self.blocks):
            raise LATError(
                f"line {line_number} outside the compressed image "
                f"(lines {base_line}..{base_line + len(self.blocks) - 1})"
            )
        return index

    def block_for_line(self, line_number: int) -> CompressedBlock:
        """The compressed block holding absolute line ``line_number``."""
        return self.blocks[self.line_index(line_number)]

    # ------------------------------------------------------------------
    # Memory image
    # ------------------------------------------------------------------

    def memory_image(self) -> bytes:
        """Serialise LAT + blocks exactly as laid out in memory.

        The returned bytes start at ``lat_base``; ``code_base`` equals
        ``lat_base + lat.storage_bytes``.  Memoised — the image is frozen,
        so every caller shares one serialisation.
        """
        cached = getattr(self, "_memory_image_cache", None)
        if cached is None:
            cached = self.lat.serialize() + b"".join(
                block.data for block in self.blocks
            )
            object.__setattr__(self, "_memory_image_cache", cached)
        return cached

    # ------------------------------------------------------------------
    # Vectorized views (cached; see repro.ccrp.decoder / stackdist)
    # ------------------------------------------------------------------

    def block_arrays(self) -> BlockArrays | None:
        """Columnar numpy view of the blocks for the refill kernels.

        ``None`` when the blocks are not uniform full lines (only
        possible for hand-built images); callers then fall back to the
        scalar per-block loops.
        """
        if not hasattr(self, "_block_arrays_cache"):
            object.__setattr__(
                self,
                "_block_arrays_cache",
                build_block_arrays(self.blocks, self.line_size),
            )
        return getattr(self, "_block_arrays_cache")

    def expanded_lines(self) -> tuple[bytes | None, ...]:
        """Every cache line of the program, decompressed in one batch.

        One ``decode_lines`` pass over all compressed blocks (bypass
        blocks are returned verbatim), memoised so every consumer of a
        pristine image — functional cache refills, fault-study surveys —
        shares a single decode.

        A block whose stored bytes no longer decode (an image rebuilt
        from corrupted storage) occupies its slot as ``None`` rather
        than failing the whole batch: a corrupt line K must not poison
        the refill of a healthy line J, and the error for line K itself
        must carry K's attribution — so consumers decode ``None`` slots
        through the per-line ``decode``, which raises for that line.
        """
        cached = getattr(self, "_expanded_lines_cache", None)
        if cached is None:
            blobs = [block.data for block in self.blocks if block.is_compressed]
            decoded = iter(self.code.decode_lines(blobs, self.line_size, errors="none"))
            cached = tuple(
                next(decoded) if block.is_compressed else block.data
                for block in self.blocks
            )
            object.__setattr__(self, "_expanded_lines_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        """Drop memoised views when pickling image artifacts.

        Everything in a ``_*_cache`` attribute is derived and rebuilt
        lazily; serialising it would multiply the on-disk artifact size.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.endswith("_cache")
        }
