"""The bit-walk Huffman decoder: the oracle for ``HuffmanCode`` decoding.

It reads one bit at a time and looks the growing word up in a
``{(length, code): symbol}`` dictionary, so it shares no table and no
loop with the production decoders.  It states the decoders' one error
rule directly: bits past the end of the blob read as zero; with no bits
left, or when the resolved code word runs past the end, the stream is
exhausted; when no code word matches within ``max_length`` bits the
word is invalid.
"""

from __future__ import annotations

from repro.compression.huffman import ALPHABET, HuffmanCode
from repro.errors import CompressionError


def bit_walk_decode(code: HuffmanCode, blob: bytes, symbol_count: int) -> bytes:
    """Decode ``symbol_count`` symbols from ``blob`` bit by bit."""
    if symbol_count < 0:
        raise CompressionError(f"symbol count cannot be negative, got {symbol_count}")
    words = {
        (code.lengths[symbol], code.codes[symbol]): symbol
        for symbol in range(ALPHABET)
        if code.lengths[symbol]
    }
    total_bits = len(blob) * 8

    def bit(index: int) -> int:
        if index >= total_bits:
            return 0
        return (blob[index >> 3] >> (7 - (index & 7))) & 1

    position = 0
    decoded = bytearray()
    for _ in range(symbol_count):
        if position >= total_bits:
            raise CompressionError("bit stream exhausted")
        word = 0
        for length in range(1, code.max_length + 1):
            word = (word << 1) | bit(position + length - 1)
            symbol = words.get((length, word))
            if symbol is not None:
                break
        else:
            raise CompressionError("invalid code word in stream")
        if position + length > total_bits:
            raise CompressionError("bit stream exhausted")
        decoded.append(symbol)
        position += length
    return bytes(decoded)


def oracle_outcome(code: HuffmanCode, blob: bytes, symbol_count: int) -> bytes | str:
    """The oracle's bytes, or its error message."""
    try:
        return bit_walk_decode(code, blob, symbol_count)
    except CompressionError as error:
        return str(error)


def decode_outcome(code: HuffmanCode, blob: bytes, symbol_count: int) -> bytes | str:
    """``code.decode``'s bytes, or its error message."""
    try:
        return code.decode(blob, symbol_count)
    except CompressionError as error:
        return str(error)
