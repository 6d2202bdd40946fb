"""Prefetching refill engine (see ``docs/modeling_notes.md`` §15).

The paper's CCRP charges every instruction-cache miss the full
sequential Huffman decode latency.  This package models the front end a
real implementation would pair with the decoder: after each miss a
next-line policy speculatively decompresses the fall-through line into
a bounded prefetch buffer, so a later demand miss pays only the
*residual* decode cycles — zero when the speculative decode finished in
the shadow of execution.

Exports:

* :data:`~repro.prefetch.engine.FETCH_POLICIES` /
  :func:`~repro.prefetch.engine.validate_fetch_policy` — the selectable
  policies (``demand``, ``nextline``);
* :class:`~repro.prefetch.engine.PrefetchingFetchUnit` — the stateful
  exact front end, the reference model the tests and
  ``benchmarks/bench_frontend.py --check`` compare the timeline with;
* :func:`~repro.prefetch.timeline.simulate_fetch_stream` /
  :class:`~repro.prefetch.timeline.FetchReplay` — the vectorized
  whole-trace replay, byte-identical to the exact unit;
* :class:`~repro.prefetch.buffer.PrefetchBuffer` — the bounded
  speculative-refill buffer.
"""

from repro.prefetch.buffer import PrefetchBuffer, PrefetchEntry
from repro.prefetch.engine import (
    FETCH_POLICIES,
    PrefetchCore,
    PrefetchingFetchUnit,
    build_core,
    validate_fetch_policy,
)
from repro.prefetch.timeline import FetchReplay, simulate_fetch_stream

__all__ = [
    "FETCH_POLICIES",
    "FetchReplay",
    "PrefetchBuffer",
    "PrefetchCore",
    "PrefetchEntry",
    "PrefetchingFetchUnit",
    "build_core",
    "simulate_fetch_stream",
    "validate_fetch_policy",
]
