"""LZW compression in the style of Unix ``compress``.

The paper uses ``compress`` [Welch84] as the reference point for whole-file
compression (Figure 5): effective on moderately sized programs but
impractical for a CCRP because it needs far more context than one cache
line.  This is a from-scratch reimplementation of the same algorithm:
variable-width codes growing from 9 to 16 bits, dictionary frozen once
full.  (Real ``compress`` additionally emits a CLEAR code when the ratio
degrades; program text compresses monotonically enough that freezing gives
near-identical sizes, and the simplification is documented here.)

The three-byte magic header of ``compress`` is charged to the output size
for parity with the paper's measurements.
"""

from __future__ import annotations

from repro.errors import CompressionError
from repro.compression.bitstream import BitReader, BitWriter

#: ``compress`` magic number plus the max-bits flag byte.
HEADER_BYTES = 3

MIN_BITS = 9
DEFAULT_MAX_BITS = 16
MAX_BITS = 24


def _check_max_bits(max_bits: int) -> None:
    if not MIN_BITS <= max_bits <= MAX_BITS:
        raise CompressionError(f"max_bits {max_bits} out of supported range")


def lzw_compress(data: bytes, max_bits: int = DEFAULT_MAX_BITS) -> bytes:
    """Compress ``data`` with compress-style variable-width LZW."""
    _check_max_bits(max_bits)
    if not data:
        return bytes(HEADER_BYTES)

    table: dict[bytes, int] = {bytes([value]): value for value in range(256)}
    next_code = 256
    width = MIN_BITS
    limit = 1 << max_bits
    writer = BitWriter()

    current = bytes([data[0]])
    for value in data[1:]:
        extended = current + bytes([value])
        if extended in table:
            current = extended
            continue
        writer.write(table[current], width)
        if next_code < limit:
            table[extended] = next_code
            next_code += 1
            if next_code > (1 << width) and width < max_bits:
                width += 1
        current = bytes([value])
    writer.write(table[current], width)
    return bytes(HEADER_BYTES) + writer.getvalue()


def lzw_decompress(blob: bytes, max_bits: int = DEFAULT_MAX_BITS) -> bytes:
    """Invert :func:`lzw_compress`.

    A corrupt payload raises :class:`~repro.errors.CompressionError`.
    """
    _check_max_bits(max_bits)
    payload = blob[HEADER_BYTES:]
    if not payload:
        return b""

    table: dict[int, bytes] = {value: bytes([value]) for value in range(256)}
    next_code = 256
    width = MIN_BITS
    limit = 1 << max_bits
    reader = BitReader(payload)

    code = reader.read(width)
    if code not in table:
        raise CompressionError(f"corrupt LZW stream: code {code}")
    previous = table[code]
    output = bytearray(previous)
    # Mirror the encoder: a new table entry is created per emitted code, and
    # the width grows when the *encoder's* next_code passes the width limit.
    while reader.remaining >= width:
        if next_code < limit:
            pending = next_code
            next_code += 1
            if next_code > (1 << width) and width < max_bits:
                width += 1
                if reader.remaining < width:
                    break
        else:
            pending = None
        code = reader.read(width)
        if code in table:
            entry = table[code]
        elif code == pending:
            entry = previous + previous[:1]
        else:
            raise CompressionError(f"corrupt LZW stream: code {code}")
        if pending is not None:
            table[pending] = previous + entry[:1]
        output.extend(entry)
        previous = entry
    return bytes(output)


def lzw_compressed_size(data: bytes, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Size in bytes of the compress-style encoding of ``data``."""
    return len(lzw_compress(data, max_bits))
