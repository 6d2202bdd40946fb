"""Seeded input generators.

The seed is the only source of variation: the same seed gives the same
inputs, and every seed gives the same amount of work (the same request
counts per class and the same slice lengths), so end-to-end medians
agree across seeds.
"""

from __future__ import annotations

import hashlib
import random

#: Suite programs whose text segments the service requests slice.
SERVICE_TEXTS = ("tex", "espresso")
SLICE_BYTES = (1024, 8192)


class SliceSource:
    """Distinct slices of real program text, drawn from one RNG."""

    def __init__(self, rng: random.Random, texts: dict[str, bytes]) -> None:
        self._rng = rng
        self._texts = [texts[name] for name in sorted(texts)]
        self._seen: set[bytes] = set()

    def take(self, length: int | None = None) -> bytes:
        if length is None:
            length = self._rng.randint(*SLICE_BYTES)
        while True:
            text = self._rng.choice(self._texts)
            offset = self._rng.randrange(len(text) - length)
            data = text[offset : offset + length]
            digest = hashlib.sha256(data).digest()
            if digest not in self._seen:
                self._seen.add(digest)
                return data


def connection_requests(
    slices: SliceSource,
    rng: random.Random,
    unique: int,
    decompress: int,
    repeat: int,
) -> list[tuple[str, object]]:
    """One connection's closed-loop request list.

    ``("compress", data)`` is a unique compress; ``("decompress", i)``
    expands the blob request ``i`` returned (each blob once, so every
    decompress runs on the worker); ``("repeat", i)`` re-sends compress
    request ``i`` exactly, which the durable response cache answers.
    """
    kinds = ["compress"] * (unique - 1) + ["decompress"] * decompress + ["repeat"] * repeat
    rng.shuffle(kinds)
    # Evenly spaced slice lengths in seeded order: every seed sends the
    # same number of bytes.
    low, high = SLICE_BYTES
    lengths = [low + (high - low) * i // (unique - 1) for i in range(unique)]
    rng.shuffle(lengths)
    requests: list[tuple[str, object]] = []
    compressed: list[int] = []
    not_expanded: list[int] = []
    owed = 0
    for kind in ["compress"] + kinds:
        if kind == "compress":
            compressed.append(len(requests))
            not_expanded.append(len(requests))
            requests.append(("compress", slices.take(lengths.pop())))
        elif kind == "repeat":
            requests.append(("repeat", rng.choice(compressed)))
            continue
        else:
            owed += 1
        while owed and not_expanded:
            target = not_expanded.pop(rng.randrange(len(not_expanded)))
            requests.append(("decompress", target))
            owed -= 1
    if owed:
        raise ValueError("more decompress than compress requests")
    return requests


def service_plan(
    seed: int,
    texts: dict[str, bytes],
    connections: int,
    unique: int,
    decompress: int,
    repeat: int,
    gate_slices: int,
) -> tuple[list[list[tuple[str, object]]], list[bytes]]:
    """Request lists (one per connection) and the pre-timing gate slices."""
    rng = random.Random(seed)
    slices = SliceSource(rng, texts)
    plans = [
        connection_requests(slices, rng, unique, decompress, repeat)
        for _ in range(connections)
    ]
    gate = [slices.take() for _ in range(gate_slices)]
    return plans, gate
