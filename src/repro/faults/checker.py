"""Differential golden-model checking: how far does one defect spread?

The paper's central robustness property is *block-bounded* damage: each
32-byte line decompresses in isolation, so a defect in compressed ROM can
corrupt at most the line it lands in, while a whole-file codec like Unix
``compress`` loses everything from the defect to end-of-file (the decoder
dictionary diverges and never recovers).  This module measures that
*blast radius* empirically: inject a fault, decode everything, and diff
the result line by line against the original program.

Two decode paths are covered:

* :func:`blast_block_codec` — any per-line Huffman variant (traditional,
  bounded, preselected) through the block codec with the bypass rule;
* :func:`blast_lzw` — the whole-file ``compress`` clone.

Both return a :class:`BlastReport`; a line is *corrupted* if its decoded
bytes differ from the golden program or were never produced at all
(a truncated LZW decode loses the tail outright).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compression.block import DEFAULT_LINE_SIZE, BlockCompressor
from repro.compression.huffman import HuffmanCode
from repro.compression.lzw import HEADER_BYTES, lzw_compress, lzw_decompress
from repro.errors import IntegrityError, ReproError
from repro.faults.injector import FaultInjector, FaultRecord
from repro.faults.integrity import crc8, line_crcs


@dataclass(frozen=True)
class BlastReport:
    """Damage assessment for one injected fault.

    Attributes:
        codec: Codec name the fault was injected under.
        record: The fault that was injected.
        line_count: Total lines in the golden program.
        corrupted_lines: Indices of lines whose decode differs from the
            golden program (including lines lost to truncation).
        detected: Whether the integrity layer caught the fault — the
            per-line CRC for block codecs, a stream error for LZW.
        decode_error: Decoder exception message, if decoding raised.
    """

    codec: str
    record: FaultRecord
    line_count: int
    corrupted_lines: tuple[int, ...] = ()
    detected: bool = False
    decode_error: str | None = field(default=None)

    @property
    def blast_radius(self) -> int:
        """Number of lines the fault corrupted."""
        return len(self.corrupted_lines)

    @property
    def span(self) -> int:
        """Lines from first to last corruption, inclusive (0 if clean)."""
        if not self.corrupted_lines:
            return 0
        return self.corrupted_lines[-1] - self.corrupted_lines[0] + 1

    @property
    def cascaded(self) -> bool:
        """True when corruption reaches the final line of the program."""
        return bool(self.corrupted_lines) and self.corrupted_lines[-1] == self.line_count - 1


def pad_to_lines(text: bytes, line_size: int = DEFAULT_LINE_SIZE) -> bytes:
    """Zero-pad ``text`` to a whole number of lines (the linker's view)."""
    remainder = len(text) % line_size
    if remainder:
        text = text + bytes(line_size - remainder)
    return text


def diff_lines(golden: bytes, decoded: bytes, line_size: int = DEFAULT_LINE_SIZE) -> tuple[int, ...]:
    """Indices of golden lines that ``decoded`` gets wrong or never covers.

    ``decoded`` may be shorter (a truncated cascade) or longer (a corrupt
    LZW dictionary can over-produce); extra bytes past the golden length
    are ignored — every golden line is either reproduced exactly or
    counted as corrupted.
    """
    corrupted = []
    for index in range(0, len(golden), line_size):
        if golden[index : index + line_size] != decoded[index : index + line_size]:
            corrupted.append(index // line_size)
    return tuple(corrupted)


def blast_block_codec(
    code: HuffmanCode,
    text: bytes,
    injector: FaultInjector,
    model: str,
    codec_name: str = "block",
    line_size: int = DEFAULT_LINE_SIZE,
    alignment: int = 1,
) -> BlastReport:
    """Inject one fault into a block-compressed store and assess the damage.

    The fault lands in the concatenated stored blocks (what actually sits
    in instruction memory); every block is then decoded *independently* —
    the refill engine's contract — and diffed against the golden program.
    Detection is the per-line CRC of :mod:`repro.faults.integrity`.
    """
    compressor = BlockCompressor(code, line_size=line_size, alignment=alignment)
    golden = pad_to_lines(text, line_size)
    blocks = compressor.compress_program(golden)
    golden_crcs = line_crcs(blocks)

    stored = b"".join(block.data for block in blocks)
    corrupted_store, record = injector.inject(stored, model)

    # Re-slice the corrupted store at the *original* block boundaries —
    # storage faults change bytes, never the LAT's length records.
    slices = []
    offset = 0
    for block in blocks:
        slices.append(corrupted_store[offset : offset + block.stored_size])
        offset += block.stored_size

    # One batch decode over every compressed slice; a None slot means the
    # decoder refused that line, and the per-line decoder is re-run on it
    # to recover the error message (refusals are rare — one per injected
    # fault at most — so this stays off the hot path).
    batch = iter(
        code.decode_lines(
            [data for data, block in zip(slices, blocks) if block.is_compressed],
            line_size,
            errors="none",
        )
    )
    decoded = bytearray()
    detected = False
    decode_error = None
    for index, (data, block) in enumerate(zip(slices, blocks)):
        if crc8(data) != golden_crcs[index]:
            detected = True
        if not block.is_compressed:
            decoded.extend(data)
            continue
        line = next(batch)
        if line is not None:
            decoded.extend(line)
            continue
        try:
            code.decode(data, line_size)
        except ReproError as error:
            # The decoder refused the line: functionally a lost line.
            decode_error = str(error)
        decoded.extend(bytes(line_size))
    return BlastReport(
        codec=codec_name,
        record=record,
        line_count=len(blocks),
        corrupted_lines=diff_lines(golden, bytes(decoded), line_size),
        detected=detected,
        decode_error=decode_error,
    )


def blast_baseline(
    text: bytes,
    injector: FaultInjector,
    model: str,
    line_size: int = DEFAULT_LINE_SIZE,
) -> BlastReport:
    """The control arm: a fault in an *uncompressed* instruction store.

    No decoding happens, so damage is exactly the bytes the fault
    touched — the bound any compressed scheme is measured against.  No
    integrity layer exists on the raw store either (``detected`` is
    always False).
    """
    golden = pad_to_lines(text, line_size)
    corrupted, record = injector.inject(golden, model, target="baseline")
    return BlastReport(
        codec="raw",
        record=record,
        line_count=len(golden) // line_size,
        corrupted_lines=diff_lines(golden, corrupted, line_size),
    )


def blast_lzw(
    text: bytes,
    injector: FaultInjector,
    model: str,
    line_size: int = DEFAULT_LINE_SIZE,
) -> BlastReport:
    """Inject one fault into a whole-file LZW store and assess the damage.

    The fault lands in the LZW payload (past the ``compress`` magic
    header).  There is no per-line integrity for a whole-file codec;
    ``detected`` records whether the *stream itself* rejected the
    corruption (an invalid dictionary code), which is the only detection
    ``compress`` offers.
    """
    golden = pad_to_lines(text, line_size)
    blob = lzw_compress(golden)
    payload, record = injector.inject(blob[HEADER_BYTES:], model)
    record = FaultRecord(
        model=record.model,
        target=record.target,
        offset=record.offset + HEADER_BYTES,
        length=record.length,
        bit=record.bit,
        masks=record.masks,
    )
    detected = False
    decode_error = None
    try:
        decoded = lzw_decompress(blob[:HEADER_BYTES] + payload)
    except ReproError as error:
        detected = True
        decode_error = str(error)
        decoded = b""
    return BlastReport(
        codec="lzw",
        record=record,
        line_count=len(golden) // line_size,
        corrupted_lines=diff_lines(golden, decoded, line_size),
        detected=detected,
        decode_error=decode_error,
    )


def refill_survey(
    image,
    policy: str = "detect",
    memory_image: bytes | None = None,
    cache_bytes: int = 1024,
):
    """Walk every line of an image through the functional refill path.

    Runs an :class:`~repro.ccrp.expanding_cache.ExpandingInstructionCache`
    over the whole program (optionally against a corrupted copy of the
    stored memory image) and returns ``(cache, decode_errors)``: the
    cache's ``integrity_events`` record what the refill-time CRC checks
    saw, and ``decode_errors`` lists ``(line, message)`` for lines whose
    corrupted bytes the Huffman decoder refused outright.  Under
    ``strict`` the first corrupt line raises
    :class:`~repro.errors.IntegrityError`, exactly as the hardware trap
    would — decode errors on unchecked corruption still surface as their
    own :class:`~repro.errors.ReproError` subclasses.
    """
    from repro.ccrp.expanding_cache import ExpandingInstructionCache

    cache = ExpandingInstructionCache(
        image,
        cache_bytes=cache_bytes,
        integrity=policy,
        memory_image=memory_image,
    )
    decode_errors: list[tuple[int, str]] = []
    base = image.text_base
    for line in range(image.line_count):
        try:
            cache.read_line(base + line * image.line_size)
        except IntegrityError:
            raise
        except ReproError as error:
            decode_errors.append((line, str(error)))
    return cache, decode_errors
