"""The prefetching refill engine: policies, accounting, exact fetch unit.

Model
-----

The paper charges every instruction-cache miss the *full* sequential
Huffman decompression latency.  A real front end would overlap most of
that with execution: while the pipeline executes the line it just
fetched, the refill engine can speculatively start decompressing the
lines fetch is likely to want next.  This module models that overlap
with two selectable policies:

* ``demand`` — today's behaviour, bit-for-bit: misses freeze the
  pipeline for the full refill (plus a LAT read on a CLB miss);
* ``nextline`` — each miss to line *L*, once serviced, starts a
  speculative refill of the fall-through line *L + 1*.

The shadow clock
----------------

Prefetch timing needs a notion of *when* a later demand miss arrives
relative to the speculative decode it may hit.  The engine keeps a
**shadow clock** in the fetch domain: every fetch advances it one cycle
(the IF slot) and every fetch freeze advances it by the stall.  Hazard
and branch stalls are deliberately *not* counted — the decoder gets
strictly less shadow time than it really would, so the hiding the model
reports is a lower bound (documented in ``docs/modeling_notes.md`` §15).

A demand miss that hits a prefetch-buffer entry pays only the
**residual**: ``max(0, finish_time - now)``, zero if the speculative
decode finished in the shadow of execution.  If the residual exceeds
what a fresh demand decode would cost (the prefetch is still queued
behind others on the single decoder port), the front end abandons it and
decodes on demand — so a covered miss never costs more than an uncovered
one.  Wrong-path prefetches are charged honestly: their bus/LAT traffic
is accounted and their buffer slot evicts under pressure.

Cache semantics are untouched: prefetched lines sit in a bounded
side-buffer (:class:`~repro.prefetch.buffer.PrefetchBuffer`), a buffer
hit still counts as a cache miss and fills the cache exactly as demand
would, so the miss stream is identical across policies — the property
the vectorized timeline (:mod:`repro.prefetch.timeline`) builds on.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.ccrp.clb import CLB
from repro.ccrp.refill import RefillEngine
from repro.errors import ConfigurationError
from repro.lat.entry import ENTRY_BYTES, LINES_PER_ENTRY
from repro.memsys.models import MemoryModel
from repro.pipeline.frontend import FetchUnit
from repro.prefetch.buffer import PrefetchBuffer, PrefetchEntry

#: The selectable fetch policies.
FETCH_POLICIES = ("demand", "nextline")


def validate_fetch_policy(name: str) -> str:
    """Check a fetch-policy name, raising :class:`ConfigurationError`."""
    if name not in FETCH_POLICIES:
        raise ConfigurationError(
            f"unknown fetch policy {name!r}; choose from {FETCH_POLICIES}"
        )
    return name


class PrefetchCore:
    """The per-miss state machine shared by both timing backends.

    The exact replay (:class:`PrefetchingFetchUnit`) drives it one miss
    at a time with a per-access shadow clock; the vectorized timeline
    (:func:`repro.prefetch.timeline.simulate_fetch_stream`) drives it
    over the extracted miss events with arrival times computed by
    vectorized position arithmetic.  Both see the same state machine, so
    their agreement reduces to the (property-tested) equivalence of the
    two clock constructions.

    Args:
        policy: One of :data:`FETCH_POLICIES`.
        depth: Prefetch-buffer capacity (speculative refills in flight
            or complete).
        line_cycles: Full refill cycles of one global cache line.
        line_bytes: Bus bytes a refill of one global line fetches.
        valid_line: Whether a global line may be prefetched (inside the
            image / text segment).
        clb: CLB probed by demand *and* speculative refills (shared
            structure, so prefetch probes train and pollute it exactly
            as hardware would); ``None`` models a perfect CLB.
        lat_penalty: Cycles of one LAT-entry read (charged on CLB miss).
    """

    def __init__(
        self,
        policy: str,
        depth: int,
        line_cycles: Callable[[int], int],
        line_bytes: Callable[[int], int],
        valid_line: Callable[[int], bool],
        clb: CLB | None = None,
        lat_penalty: int = 0,
    ) -> None:
        validate_fetch_policy(policy)
        self.policy = policy
        self.buffer = PrefetchBuffer(depth)
        self._line_cycles = line_cycles
        self._line_bytes = line_bytes
        self._valid_line = valid_line
        self.clb = clb
        self.lat_penalty = lat_penalty
        self._decoder_free = 0
        self.reset_counters()

    def reset_counters(self) -> None:
        self.issued = 0
        self.useful = 0
        self.useless = 0
        self.partial = 0
        self.covered_stall_cycles = 0
        self.clb_penalty_cycles = 0
        self.traffic_bytes = 0
        self.wasted_traffic_bytes = 0

    def reset(self) -> None:
        """Empty the buffer and decoder queue and clear statistics."""
        self.buffer.clear()
        self._decoder_free = 0
        if self.clb is not None:
            self.clb.reset()
        self.reset_counters()

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------

    def _probe_clb(self, line: int) -> int:
        """Probe the CLB for ``line``'s LAT entry; returns the penalty."""
        if self.clb is None:
            return 0
        if self.clb.access(line // LINES_PER_ENTRY):
            return 0
        self.traffic_bytes += ENTRY_BYTES
        return self.lat_penalty

    def on_miss(self, now: int, line: int, is_resident: Callable[[int], bool]) -> int:
        """Service one demand miss at shadow time ``now``; returns stall.

        ``is_resident`` answers whether a *predicted* line is already in
        the instruction cache (such prefetches are suppressed); the
        caller updates the cache with the missing line itself, exactly
        as the demand policy would.
        """
        entry = self.buffer.pop(line)
        penalty = self._probe_clb(line)
        self.clb_penalty_cycles += penalty
        demand_cost = self._line_cycles(line) + penalty
        if entry is not None:
            residual = entry.finish_time - now
            if residual <= demand_cost:
                # Covered (fully or partially): pay only what is left of
                # the speculative decode; the line's bytes were already
                # fetched at issue, so no new line traffic.
                self.useful += 1
                stall = max(0, residual)
                if stall:
                    self.partial += 1
                self.covered_stall_cycles += demand_cost - stall
                self._issue_prefetches(now + stall, line, is_resident)
                return stall
            # Still queued behind other speculative work: abandon it and
            # decode on demand (a covered miss never costs more than an
            # uncovered one).  The speculative fetch was wasted traffic.
            self.useless += 1
            self.wasted_traffic_bytes += self._entry_traffic(entry)
        stall = demand_cost
        self.traffic_bytes += self._line_bytes(line)
        self._issue_prefetches(now + stall, line, is_resident)
        return stall

    def _entry_traffic(self, entry: PrefetchEntry) -> int:
        return self._line_bytes(entry.line)

    def _issue_prefetches(
        self, done: int, line: int, is_resident: Callable[[int], bool]
    ) -> None:
        """Start the speculative refill of the fall-through line once the
        demand miss completes (``nextline``; ``demand`` issues none)."""
        if self.policy == "demand":
            return
        predicted = line + 1
        if not self._valid_line(predicted):
            return
        if predicted in self.buffer or is_resident(predicted):
            return
        penalty = self._probe_clb(predicted)
        duration = self._line_cycles(predicted) + penalty
        start = max(done, self._decoder_free)
        finish = start + duration
        self._decoder_free = finish
        self.traffic_bytes += self._line_bytes(predicted)
        evicted = self.buffer.insert(
            PrefetchEntry(line=predicted, issue_time=done, finish_time=finish)
        )
        self.issued += 1
        if evicted is not None:
            self.useless += 1
            self.wasted_traffic_bytes += self._entry_traffic(evicted)

    # ------------------------------------------------------------------
    # Accounting views
    # ------------------------------------------------------------------

    @property
    def in_flight_at_exit(self) -> int:
        """Issued prefetches still sitting in the buffer."""
        return len(self.buffer)

    @property
    def clb_hits(self) -> int:
        return self.clb.hits if self.clb is not None else 0

    @property
    def clb_misses(self) -> int:
        return self.clb.misses if self.clb is not None else 0

    def counters(self) -> dict[str, int]:
        """The prefetch counter block (reconciles: issued == useful +
        useless + in_flight_at_exit)."""
        return {
            "issued": self.issued,
            "useful": self.useful,
            "useless": self.useless,
            "partial": self.partial,
            "in_flight_at_exit": self.in_flight_at_exit,
            "covered_stall_cycles": self.covered_stall_cycles,
            "wasted_traffic_bytes": self.wasted_traffic_bytes,
        }


def build_core(
    policy: str,
    depth: int,
    memory: MemoryModel,
    line_size: int,
    refill: RefillEngine | None = None,
    clb: CLB | None = None,
    prefetch_bounds: tuple[int, int] | None = None,
) -> PrefetchCore:
    """Configure a :class:`PrefetchCore` for one machine model.

    Both timing backends build their core here, so the per-line cost
    and validity rules cannot drift between the exact replay and the
    vectorized timeline.
    """
    if refill is not None:
        base_line = refill.image.text_base // line_size
        cycles = refill.ccrp_refill_cycles
        bytes_table = refill.fetched_bytes_per_line
        line_cycles = lambda g: int(cycles[g - base_line])  # noqa: E731
        line_bytes = lambda g: int(bytes_table[g - base_line])  # noqa: E731
        valid = lambda g: 0 <= g - base_line < len(cycles)  # noqa: E731
        lat_penalty = refill.lat_fetch_cycles
    else:
        burst = memory.bytes_read_cycles(line_size)
        fetched = memory.beats_for_bytes(line_size) * memory.bus_bytes
        line_cycles = lambda g: burst  # noqa: E731
        line_bytes = lambda g: fetched  # noqa: E731
        if prefetch_bounds is not None:
            base_line, count = prefetch_bounds
            valid = lambda g: 0 <= g - base_line < count  # noqa: E731
        else:
            valid = lambda g: g >= 0  # noqa: E731
        lat_penalty = 0
    return PrefetchCore(
        policy=policy,
        depth=depth,
        line_cycles=line_cycles,
        line_bytes=line_bytes,
        valid_line=valid,
        clb=clb,
        lat_penalty=lat_penalty,
    )


class PrefetchingFetchUnit(FetchUnit):
    """Stateful prefetching front end — the exact (golden) replay.

    A drop-in :class:`~repro.pipeline.frontend.FetchUnit` for
    :func:`~repro.pipeline.datapath.simulate_pipeline`: same
    ``fetch(address) -> freeze cycles`` contract, plus the shadow clock
    and prefetch machinery of :class:`PrefetchCore`.  With
    ``policy="demand"`` it is byte-identical to the plain unit
    (property-tested).

    Args:
        cache_bytes / memory / line_size / refill / clb: As the base
            class.  ``refill=None`` models the standard machine — a
            prefetch then hides plain burst latency instead of decode
            time.
        policy: One of :data:`FETCH_POLICIES`.
        prefetch_depth: Prefetch-buffer capacity.
        prefetch_bounds: ``(base_line, line_count)`` limiting which
            global lines may be prefetched when ``refill`` is ``None``
            (the compressed image provides the bounds otherwise).
    """

    def __init__(
        self,
        cache_bytes: int,
        memory: MemoryModel | str,
        line_size: int = 32,
        refill: RefillEngine | None = None,
        clb: CLB | None = None,
        policy: str = "demand",
        prefetch_depth: int = 4,
        prefetch_bounds: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(
            cache_bytes, memory, line_size=line_size, refill=refill, clb=clb
        )
        self._clock = 0
        self.core = build_core(
            policy,
            prefetch_depth,
            self.memory,
            line_size,
            refill=refill,
            clb=clb,
            prefetch_bounds=prefetch_bounds,
        )

    def _is_resident(self, line: int) -> bool:
        return self._resident[line % self.num_sets] == line

    def fetch(self, address: int) -> int:
        """One instruction fetch; returns the freeze cycles it caused."""
        line = address >> self._line_shift
        set_index = line % self.num_sets
        self.accesses += 1
        arrival = self._clock
        if self._resident[set_index] == line:
            self._clock = arrival + 1
            return 0
        self._resident[set_index] = line
        self.misses += 1
        stall = self.core.on_miss(arrival, line, self._is_resident)
        self.clb_penalty_cycles = self.core.clb_penalty_cycles
        self._clock = arrival + 1 + stall
        return stall

    def reset(self) -> None:
        """Empty the cache, buffer, CLB, and clocks; clear statistics."""
        super().reset()
        self._clock = 0
        self.core.reset()

    def counters(self) -> dict[str, int]:
        """Front-end counters including the prefetch block."""
        report = super().counters()
        report.update(
            {f"prefetch_{key}": value for key, value in self.core.counters().items()}
        )
        report["traffic_bytes"] = self.core.traffic_bytes
        return report
