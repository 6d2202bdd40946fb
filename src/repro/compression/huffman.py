"""Canonical Huffman codes: traditional and length-limited (bounded).

Two construction algorithms are provided behind one class:

* :meth:`HuffmanCode.from_frequencies` with ``max_length=None`` builds the
  classic optimal Huffman code [Huffman52] — code words may grow to 255
  bits in the worst case, which is why the paper calls it impractical to
  decode in hardware.
* With ``max_length=N`` it runs the package–merge algorithm (Larmore &
  Hirschberg) to build the *optimal length-limited* code — the paper's
  "Bounded Huffman" uses N = 16.

Code words are canonical (sorted by length, then symbol), so a decoder
needs only the 256 code lengths — this is the "listing of the selected
Huffman code" the paper stores with each program, and what makes the
hard-wired preselected decoder possible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError
from repro.compression.bitstream import BitWriter

#: Number of symbols: the codecs operate on program bytes.
ALPHABET = 256


def _traditional_lengths(frequencies: list[int]) -> list[int]:
    """Optimal unbounded code lengths via the classic heap algorithm."""
    heap: list[tuple[int, int, tuple[int, ...]]] = []
    for symbol, frequency in enumerate(frequencies):
        if frequency > 0:
            heap.append((frequency, symbol, (symbol,)))
    heapq.heapify(heap)
    if not heap:
        raise CompressionError("cannot build a Huffman code from an empty histogram")
    lengths = [0] * ALPHABET
    if len(heap) == 1:
        lengths[heap[0][1]] = 1
        return lengths
    while len(heap) > 1:
        freq_a, tie_a, symbols_a = heapq.heappop(heap)
        freq_b, tie_b, symbols_b = heapq.heappop(heap)
        for symbol in symbols_a:
            lengths[symbol] += 1
        for symbol in symbols_b:
            lengths[symbol] += 1
        heapq.heappush(heap, (freq_a + freq_b, min(tie_a, tie_b), symbols_a + symbols_b))
    return lengths


def _package_merge(frequencies: list[int], max_length: int) -> list[int]:
    """Optimal length-limited code lengths via package–merge.

    Standard coin-collector formulation: a symbol coded at length ``l``
    contributes coins of denominations 2^-1 … 2^-l; we must buy total
    denomination ``n - 1`` at minimum weight.  Working from the smallest
    denomination (level ``max_length``) upward, each level's items are the
    symbol coins plus pairwise packages from the level below; the answer is
    the 2(n-1) cheapest items at level 1.
    """
    symbols = [(frequency, symbol) for symbol, frequency in enumerate(frequencies) if frequency > 0]
    count = len(symbols)
    if count == 0:
        raise CompressionError("cannot build a Huffman code from an empty histogram")
    lengths = [0] * ALPHABET
    if count == 1:
        lengths[symbols[0][1]] = 1
        return lengths
    if (1 << max_length) < count:
        raise CompressionError(
            f"{count} symbols cannot be coded with max length {max_length}"
        )
    symbols.sort()
    base = [(frequency, (symbol,)) for frequency, symbol in symbols]
    packages: list[tuple[int, tuple[int, ...]]] = []
    for level in range(max_length, 1, -1):
        merged = sorted(base + packages)
        packages = [
            (merged[i][0] + merged[i + 1][0], merged[i][1] + merged[i + 1][1])
            for i in range(0, len(merged) - 1, 2)
        ]
    solution = sorted(base + packages)[: 2 * (count - 1)]
    for _, contained in solution:
        for symbol in contained:
            lengths[symbol] += 1
    return lengths


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical Huffman code over byte symbols.

    Attributes:
        lengths: Code length in bits for each of the 256 symbols
            (0 = symbol has no code and cannot be encoded).
        codes: Canonical code word for each symbol.
    """

    lengths: tuple[int, ...]
    codes: tuple[int, ...]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_frequencies(
        cls,
        frequencies: list[int],
        max_length: int | None = None,
        cover_all_symbols: bool = False,
    ) -> "HuffmanCode":
        """Build a code from a byte histogram.

        Args:
            frequencies: 256 occurrence counts.
            max_length: Bound on code-word length; ``None`` builds the
                traditional unbounded code, ``16`` the paper's Bounded code.
            cover_all_symbols: Give *every* byte value a code even if its
                count is zero (required for preselected codes, which must
                encode programs outside the training corpus).  Implemented
                by add-one smoothing of the histogram.
        """
        if len(frequencies) != ALPHABET:
            raise CompressionError(f"need {ALPHABET} frequencies, got {len(frequencies)}")
        if any(frequency < 0 for frequency in frequencies):
            raise CompressionError("frequencies must be non-negative")
        if cover_all_symbols:
            frequencies = [frequency + 1 for frequency in frequencies]
        if max_length is None:
            lengths = _traditional_lengths(frequencies)
        else:
            lengths = _package_merge(frequencies, max_length)
        return cls.from_lengths(lengths)

    @classmethod
    def from_lengths(cls, lengths: list[int]) -> "HuffmanCode":
        """Assign canonical code words to the given code lengths."""
        if len(lengths) != ALPHABET:
            raise CompressionError(f"need {ALPHABET} lengths, got {len(lengths)}")
        kraft = sum(2.0 ** -length for length in lengths if length > 0)
        if kraft > 1.0 + 1e-9:
            raise CompressionError(f"lengths violate the Kraft inequality ({kraft:.4f} > 1)")
        order = sorted(
            (symbol for symbol in range(ALPHABET) if lengths[symbol] > 0),
            key=lambda symbol: (lengths[symbol], symbol),
        )
        codes = [0] * ALPHABET
        code = 0
        previous_length = 0
        for symbol in order:
            code <<= lengths[symbol] - previous_length
            codes[symbol] = code
            code += 1
            previous_length = lengths[symbol]
        return cls(lengths=tuple(lengths), codes=tuple(codes))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def max_length(self) -> int:
        """Longest code word in bits."""
        return max(self.lengths)

    @property
    def table_storage_bytes(self) -> int:
        """Bytes needed to store this code with a program.

        A canonical code is fully described by its 256 code lengths, one
        byte each — the "listing of the selected Huffman code" the paper
        charges against per-program codes.
        """
        return ALPHABET

    def _np_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Cached ``(lengths, codes)`` arrays for the vectorized paths.

        ``codes`` is ``None`` when any code word exceeds 64 bits (possible
        for degenerate unbounded codes) — those fall back to the scalar
        bit writer.
        """
        cached = getattr(self, "_np_cache", None)
        if cached is None:
            lengths = np.array(self.lengths, dtype=np.int64)
            codes = (
                np.array(self.codes, dtype=np.uint64)
                if self.max_length <= 64
                else None
            )
            cached = (lengths, codes)
            object.__setattr__(self, "_np_cache", cached)
        return cached

    def _first_uncodable(self, symbols: np.ndarray, bit_lengths: np.ndarray) -> int:
        """The first symbol (in data order) whose code length is zero."""
        return int(symbols[np.argmax(bit_lengths == 0)])

    def encoded_bit_length(self, data: bytes) -> int:
        """Exact number of bits ``data`` occupies under this code.

        Vectorized as a histogram/length dot product: the bit total only
        depends on how often each symbol occurs.
        """
        symbols = np.frombuffer(data, dtype=np.uint8)
        if symbols.size == 0:
            return 0
        lengths, _ = self._np_arrays()
        counts = np.bincount(symbols, minlength=ALPHABET)
        if counts[lengths == 0].any():
            value = self._first_uncodable(symbols, lengths[symbols])
            raise CompressionError(f"symbol {value:#04x} has no code")
        return int(counts @ lengths)

    def symbol_bit_lengths(self, data: bytes) -> list[int]:
        """Per-byte encoded lengths (drives the refill-decoder timing)."""
        lengths, _ = self._np_arrays()
        return lengths[np.frombuffer(data, dtype=np.uint8)].tolist()

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, data: bytes) -> tuple[bytes, int]:
        """Encode ``data``; returns (padded bytes, exact bit length).

        Vectorized: expands every code word into a flat bit array and
        packs it with :func:`np.packbits` — byte-identical to the scalar
        :class:`BitWriter` path (property-tested), which remains as the
        fallback for codes with words longer than 64 bits.
        """
        lengths_by_symbol, codes_by_symbol = self._np_arrays()
        if codes_by_symbol is None:
            return self._encode_scalar(data)
        symbols = np.frombuffer(data, dtype=np.uint8)
        if symbols.size == 0:
            return b"", 0
        bit_lengths = lengths_by_symbol[symbols]
        if not bit_lengths.all():
            value = self._first_uncodable(symbols, bit_lengths)
            raise CompressionError(f"symbol {value:#04x} has no code")
        ends = np.cumsum(bit_lengths)
        total_bits = int(ends[-1])
        starts = ends - bit_lengths
        # One entry per output bit: which symbol it belongs to and the
        # bit's position within that symbol's code word (0 = MSB).
        owner = np.repeat(np.arange(symbols.size), bit_lengths)
        intra = np.arange(total_bits) - starts[owner]
        shift = (bit_lengths[owner] - 1 - intra).astype(np.uint64)
        bits = ((codes_by_symbol[symbols[owner]] >> shift) & np.uint64(1)).astype(
            np.uint8
        )
        return np.packbits(bits).tobytes(), total_bits

    def _encode_scalar(self, data: bytes) -> tuple[bytes, int]:
        """Reference bit-at-a-time encoder (also the >64-bit fallback)."""
        writer = BitWriter()
        lengths, codes = self.lengths, self.codes
        for value in data:
            length = lengths[value]
            if length == 0:
                raise CompressionError(f"symbol {value:#04x} has no code")
            writer.write(codes[value], length)
        return writer.getvalue(), writer.bit_length

    def encode_lines(
        self, data: bytes, line_size: int
    ) -> tuple[list[bytes], np.ndarray] | None:
        """Encode ``data`` as independent equal-sized lines in one pass.

        Each line is encoded exactly as ``encode(line)`` would — its
        stream starts on a byte boundary and is zero-padded to whole
        bytes — but the bit expansion and packing run once over the whole
        segment instead of once per line.  Returns ``(encoded bytes per
        line, exact bit length per line)``, or ``None`` when the code
        needs the scalar fallback (a code word longer than 64 bits).
        """
        if line_size <= 0:
            raise CompressionError(f"line size must be positive, got {line_size}")
        if len(data) % line_size:
            raise CompressionError(
                f"data length {len(data)} is not a multiple of line size {line_size}"
            )
        lengths_by_symbol, codes_by_symbol = self._np_arrays()
        if codes_by_symbol is None:
            return None
        symbols = np.frombuffer(data, dtype=np.uint8)
        line_count = symbols.size // line_size
        if line_count == 0:
            return [], np.zeros(0, dtype=np.int64)
        bit_lengths = lengths_by_symbol[symbols]
        if not bit_lengths.all():
            value = self._first_uncodable(symbols, bit_lengths)
            raise CompressionError(f"symbol {value:#04x} has no code")
        line_bits = bit_lengths.reshape(line_count, line_size).sum(axis=1)
        stored_bytes = (line_bits + 7) >> 3
        line_byte_starts = np.zeros(line_count, dtype=np.int64)
        np.cumsum(stored_bytes[:-1], out=line_byte_starts[1:])
        total_bits = int(line_byte_starts[-1] + stored_bytes[-1]) * 8
        # Dense per-symbol bit offsets, then shift every line's codes up
        # to its byte-aligned start (the gap bits stay zero = padding).
        ends = np.cumsum(bit_lengths)
        starts = ends - bit_lengths
        rebase = line_byte_starts * 8 - (ends.reshape(line_count, line_size)[:, -1] - line_bits)
        owner = np.repeat(np.arange(symbols.size), bit_lengths)
        intra = np.arange(int(ends[-1])) - starts[owner]
        line_of_symbol = np.repeat(np.arange(line_count), line_size)
        positions = starts[owner] + rebase[line_of_symbol[owner]] + intra
        shift = (bit_lengths[owner] - 1 - intra).astype(np.uint64)
        bits = np.zeros(total_bits, dtype=np.uint8)
        bits[positions] = (codes_by_symbol[symbols[owner]] >> shift) & np.uint64(1)
        packed = np.packbits(bits).tobytes()
        encoded = [
            packed[start : start + size]
            for start, size in zip(line_byte_starts.tolist(), stored_bytes.tolist())
        ]
        return encoded, line_bits

    def __getstate__(self) -> dict:
        """Drop derived decode/encode tables when pickling.

        Every ``_*_cache`` attribute is rebuilt lazily on demand, and the
        full-window table alone is 128 KiB — without this, each pickled
        image artifact would carry every table the code ever built.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.endswith("_cache")
        }

    # ------------------------------------------------------------------
    # Decoding (the "64K mapping ROM" of paper Section 3.4)
    # ------------------------------------------------------------------
    #
    # One table, one error rule, two loops over it.  ``_window_tables``
    # maps every ``min(max_length, _WINDOW_LIMIT)``-bit window to the
    # symbol and length of the code word it starts with.  Both loops
    # resolve the next window with zero bits past the end of the blob:
    # no bits left, or a code word running past the end, is "bit stream
    # exhausted"; a window no code word prefixes is "invalid code word in
    # stream".  A bit-at-a-time walk over the code words stays in the
    # tests as the oracle for both.

    #: Widest window the table covers: 2^16 entries is exactly the
    #: paper's "64K entry mapping ROM".  Longer code words exist only in
    #: degenerate unbounded codes; they resolve in the long-code lookup.
    _WINDOW_LIMIT = 16

    def decode(self, blob: bytes, symbol_count: int) -> bytes:
        """Decode ``symbol_count`` symbols from ``blob``, one at a time.

        A bit accumulator is kept topped up to one whole code word; each
        symbol is one window-table lookup (or, past the window, one scan
        of the long-code lookup).
        """
        if symbol_count < 0:
            raise CompressionError(
                f"symbol count cannot be negative, got {symbol_count}"
            )
        window_symbols, window_lengths, long_codes = self._window_tables()
        max_length = self.max_length
        window_bits = min(max_length, self._WINDOW_LIMIT)
        mask = (1 << window_bits) - 1
        # At least one bit, so a blob under an empty code reads "invalid".
        fill = max(max_length, 1)
        acc = 0
        acc_bits = 0
        position = 0
        total_bits = len(blob) * 8
        decoded = bytearray()
        for _ in range(symbol_count):
            while acc_bits < fill and position < total_bits:
                acc = (acc << 8) | blob[position >> 3]
                position += 8
                acc_bits += 8
            if acc_bits <= 0:
                raise CompressionError("bit stream exhausted")
            if acc_bits >= window_bits:
                probe = (acc >> (acc_bits - window_bits)) & mask
            else:
                probe = (acc << (window_bits - acc_bits)) & mask
            length = window_lengths[probe]
            if length:
                symbol = window_symbols[probe]
            else:
                symbol = None
                if acc_bits >= max_length:
                    word = acc >> (acc_bits - max_length)
                else:
                    word = acc << (max_length - acc_bits)
                for length in range(window_bits + 1, max_length + 1):
                    symbol = long_codes.get((length, word >> (max_length - length)))
                    if symbol is not None:
                        break
                if symbol is None:
                    raise CompressionError("invalid code word in stream")
            if length > acc_bits:
                raise CompressionError("bit stream exhausted")
            acc_bits -= length
            acc &= (1 << acc_bits) - 1
            decoded.append(symbol)
        return bytes(decoded)

    #: The per-line decoder's former name, kept only because
    #: ``perfbench/tracing.py`` wraps it by name; call :meth:`decode`.
    decode_fast = decode

    def decode_lines(
        self,
        blobs: list[bytes],
        symbol_count: int,
        errors: str = "raise",
    ) -> list[bytes | None]:
        """Decode many independent encoded lines in one vectorized pass.

        Each blob is decoded exactly as ``decode(blob, symbol_count)``
        would decode it — same output bytes, same error message — but
        all lines advance together: per decoded symbol one gather reads
        a 3-byte window from every line's packed bit stream and one
        lookup in the shared window table resolves the symbol and code
        length for every line at once.  Lines are zero-padded into a
        rectangular byte matrix, so no window ever reads a neighbouring
        line's bits.  Codes wider than the window decode per line.

        Args:
            blobs: The encoded lines.  Order is preserved.
            symbol_count: Symbols to decode from every blob (the cache
                line size, for block-compressed programs).
            errors: ``"raise"`` propagates the first failing blob's
                :class:`~repro.errors.CompressionError` (same message and
                blob order as a ``decode`` loop); ``"none"`` returns
                ``None`` in that blob's slot instead.
        """
        if errors not in ("raise", "none"):
            raise CompressionError(
                f"errors must be 'raise' or 'none', got {errors!r}"
            )
        if symbol_count < 0:
            raise CompressionError(
                f"symbol count cannot be negative, got {symbol_count}"
            )
        blobs = list(blobs)
        if not blobs:
            return []
        if symbol_count == 0:
            return [b""] * len(blobs)
        if self.max_length > self._WINDOW_LIMIT:
            results: list[bytes | None] = []
            for blob in blobs:
                try:
                    results.append(self.decode(blob, symbol_count))
                except CompressionError:
                    if errors == "raise":
                        raise
                    results.append(None)
            return results

        table_symbols, table_lengths, _ = self._window_tables()
        window_symbols = np.frombuffer(table_symbols, dtype=np.uint8)
        window_lengths = np.frombuffer(table_lengths, dtype=np.uint8)
        window_bits = self.max_length
        count = len(blobs)
        sizes = np.fromiter((len(blob) for blob in blobs), dtype=np.int64, count=count)
        # Rectangular zero-padded layout; +3 slack bytes so the 3-byte
        # window gather below stays in bounds even at end of stream.
        width = int(sizes.max()) + 3
        data = np.zeros(count * width, dtype=np.uint8)
        flat = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        if flat.size:
            owner = np.repeat(np.arange(count, dtype=np.int64), sizes)
            column = np.arange(flat.size, dtype=np.int64) - np.repeat(
                np.cumsum(sizes) - sizes, sizes
            )
            data[owner * width + column] = flat

        position = np.zeros(count, dtype=np.int64)
        total_bits = sizes * 8
        out = np.zeros((count, symbol_count), dtype=np.uint8)
        #: 0 = decoding, 1 = bit stream exhausted, 2 = invalid code word.
        status = np.zeros(count, dtype=np.uint8)
        live = np.arange(count, dtype=np.int64)
        for index in range(symbol_count):
            if live.size == 0:
                break
            bit_pos = position[live]
            remaining = total_bits[live] - bit_pos
            base = live * width + (bit_pos >> 3)
            window = (
                (data[base].astype(np.int64) << 16)
                | (data[base + 1].astype(np.int64) << 8)
                | data[base + 2].astype(np.int64)
            ) >> (24 - window_bits - (bit_pos & 7))
            window &= (1 << window_bits) - 1
            length = window_lengths[window].astype(np.int64)
            symbol = window_symbols[window]
            exhausted = remaining <= 0
            invalid = ~exhausted & (length == 0)
            exhausted |= ~invalid & (length > remaining)
            status[live[exhausted]] = 1
            status[live[invalid]] = 2
            ok = ~(exhausted | invalid)
            good = live[ok]
            out[good, index] = symbol[ok]
            position[good] = bit_pos[ok] + length[ok]
            live = good

        if errors == "raise":
            bad = np.nonzero(status)[0]
            if bad.size:
                raise CompressionError(
                    "bit stream exhausted"
                    if status[int(bad[0])] == 1
                    else "invalid code word in stream"
                )
        return [
            out[index].tobytes() if status[index] == 0 else None
            for index in range(count)
        ]

    def _window_tables(self) -> tuple[bytearray, bytearray, dict[tuple[int, int], int]]:
        """The decode table: symbol and length per window, plus long codes.

        One entry per possible ``min(max_length, _WINDOW_LIMIT)``-bit
        window; every code word that fits the window owns the contiguous
        range of windows it prefixes, and length 0 marks windows no such
        code word matches.  Code words longer than the window go in the
        ``{(length, code): symbol}`` long-code lookup instead.  The
        arrays are ``bytearray``s — byte indexing is the cheapest lookup
        the per-line loop has — which the batch loop views through numpy
        without copying.
        """
        cached = getattr(self, "_window_cache", None)
        if cached is None:
            window_bits = min(self.max_length, self._WINDOW_LIMIT)
            symbols = bytearray(1 << window_bits)
            lengths = bytearray(1 << window_bits)
            long_codes: dict[tuple[int, int], int] = {}
            for symbol in range(ALPHABET):
                length = self.lengths[symbol]
                if length == 0:
                    continue
                if length > window_bits:
                    long_codes[(length, self.codes[symbol])] = symbol
                    continue
                start = self.codes[symbol] << (window_bits - length)
                span = 1 << (window_bits - length)
                symbols[start : start + span] = bytes((symbol,)) * span
                lengths[start : start + span] = bytes((length,)) * span
            cached = (symbols, lengths, long_codes)
            object.__setattr__(self, "_window_cache", cached)
        return cached
