"""A *functional* code-expanding instruction cache.

The performance experiments use analytic refill timing; this class instead
performs the real work, bit for bit: it keeps a direct-mapped cache of
decompressed lines and, on a miss, walks the serialised memory image the
way the hardware would — read the packed LAT entry (through the CLB), sum
the length records to find the block, fetch the stored bytes, and run the
Huffman decoder.  The end-to-end tests execute programs through it and
require byte-identical instruction fetches, proving the paper's claim that
compression is transparent to the processor.

When the image carries a per-line CRC table (see
:mod:`repro.faults.integrity`), the refill path verifies every fetched
block before decoding it, under a configurable policy:

* ``strict`` — a mismatch raises :class:`~repro.errors.IntegrityError`;
* ``detect`` — mismatches are recorded in :attr:`integrity_events` (and
  the ``integrity.detected`` metric) and the corrupt line is handed on;
* ``off`` — no checking (the default, and the only option for images
  built without an integrity layer).

Fault studies pass a corrupted copy of the stored bytes via
``memory_image`` — the equivalent of aging EPROM cells under an
unchanged program.
"""

from __future__ import annotations

from repro import reference_mode
from repro.errors import CompressionError, ConfigurationError, IntegrityError
from repro.ccrp.clb import CLB
from repro.ccrp.image import CompressedImage
from repro.core.metrics import METRICS
from repro.faults.integrity import crc8, validate_integrity_policy
from repro.lat.entry import ENTRY_BYTES, LINES_PER_ENTRY, LATEntry


class ExpandingInstructionCache:
    """Direct-mapped I-cache whose refill path decompresses for real.

    Args:
        image: The compressed program image.
        cache_bytes: Total cache capacity (256-4096 in the paper).
        clb_entries: CLB capacity in LAT entries.
        integrity: Refill-time integrity policy (``strict``/``detect``/
            ``off``).  Anything but ``off`` requires ``image.line_crcs``.
        memory_image: What is actually burned into instruction memory;
            defaults to ``image.memory_image()``.  Fault experiments pass
            a corrupted copy here.
    """

    def __init__(
        self,
        image: CompressedImage,
        cache_bytes: int = 1024,
        clb_entries: int = 16,
        integrity: str = "off",
        memory_image: bytes | None = None,
    ) -> None:
        line_size = image.line_size
        if cache_bytes % line_size or cache_bytes < line_size:
            raise ConfigurationError(
                f"cache size {cache_bytes} is not a multiple of the {line_size}-byte line"
            )
        validate_integrity_policy(integrity)
        if integrity != "off" and image.line_crcs is None:
            raise ConfigurationError(
                f"integrity policy {integrity!r} needs an image built with "
                "per-line CRCs (ProgramCompressor(integrity=True))"
            )
        self.image = image
        self.line_size = line_size
        self.num_sets = cache_bytes // line_size
        self.clb = CLB(entries=clb_entries)
        self.integrity = integrity
        # Size accounting gives the layout length without serialising, so
        # the image is serialised at most once (memoised) and not at all
        # when an override is supplied.
        expected_bytes = image.lat.storage_bytes + image.compressed_code_bytes
        self._memory = (
            memory_image if memory_image is not None else image.memory_image()
        )  # starts at lat_base
        if len(self._memory) != expected_bytes:
            raise ConfigurationError(
                "memory_image override must match the image layout "
                f"({expected_bytes} bytes, got {len(self._memory)})"
            )
        # A pristine store can serve refills from the image's one batch
        # decode; an overridden (possibly corrupted) store must decode
        # whatever bytes the walk actually fetched.
        self._use_batch = memory_image is None and not reference_mode()
        self._tags: list[int | None] = [None] * self.num_sets
        self._lines: list[bytes] = [b""] * self.num_sets
        self.hits = 0
        self.misses = 0
        #: ``(line_number, stored_crc, fetched_crc)`` per detected mismatch.
        self.integrity_events: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    # Fetch path
    # ------------------------------------------------------------------

    def fetch_word(self, address: int) -> int:
        """Fetch the instruction word at ``address`` through the cache."""
        if address % 4:
            raise ConfigurationError(f"instruction fetch must be word aligned: {address:#x}")
        line = self.read_line(address)
        offset = address % self.line_size
        return int.from_bytes(line[offset : offset + 4], "big")

    def read_line(self, address: int) -> bytes:
        """Return the (decompressed) cache line containing ``address``."""
        line_number = address // self.line_size
        set_index = line_number % self.num_sets
        if self._tags[set_index] == line_number:
            self.hits += 1
            return self._lines[set_index]
        self.misses += 1
        line = self._refill(line_number)
        self._tags[set_index] = line_number
        self._lines[set_index] = line
        return line

    # ------------------------------------------------------------------
    # The hardware refill walk
    # ------------------------------------------------------------------

    def _refill(self, line_number: int) -> bytes:
        image = self.image
        # line_index raises LATError for lines outside the image.
        block_index = image.line_index(line_number)

        lat_index = block_index // LINES_PER_ENTRY
        self.clb.access(lat_index)  # timing-only; the entry data is the same

        # Read the packed LAT entry from the memory image (LAT base register
        # + shifted index), exactly as the CLB refill hardware would.
        entry_offset = lat_index * ENTRY_BYTES
        entry = LATEntry.decode(self._memory[entry_offset : entry_offset + ENTRY_BYTES])

        slot = block_index % LINES_PER_ENTRY
        block_address = entry.block_address(slot)
        stored_size = entry.block_size(slot)
        start = block_address - image.lat_base
        stored = bytes(self._memory[start : start + stored_size])

        self._verify(block_index, line_number, stored)

        if not entry.is_compressed(slot):
            return stored
        # The batch-decoded line is only valid if the walk fetched exactly
        # the block's stored bytes — the comparison keeps the LAT walk
        # honest, and anything else (corruption, walk bugs) decodes the
        # fetched bytes on their own, exactly as the hardware would.
        if self._use_batch and stored == image.blocks[block_index].data:
            line = image.expanded_lines()[block_index]
            # A None slot is a blob the batch decode could not expand
            # (image built from corrupted storage).  Fall through to the
            # per-line decoder so the failure is attributed to *this*
            # line, instead of the batch poisoning every refill.
            if line is not None:
                return line
        try:
            return image.code.decode(stored, self.line_size)
        except CompressionError as error:
            raise CompressionError(f"line {line_number}: {error}") from error

    def _verify(self, block_index: int, line_number: int, stored: bytes) -> None:
        """Check the fetched block against its per-line CRC.

        Also catches LAT corruption indirectly: a corrupt entry makes the
        walk fetch the wrong byte range, which then misses this CRC.
        """
        if self.integrity == "off":
            return
        expected = self.image.line_crcs[block_index]
        actual = crc8(stored)
        if actual == expected:
            return
        METRICS.count("integrity.detected")
        self.integrity_events.append((line_number, expected, actual))
        if self.integrity == "strict":
            raise IntegrityError(
                f"line {line_number}: stored block fails CRC "
                f"(expected {expected:#04x}, fetched {actual:#04x})",
                line_number=line_number,
            )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
