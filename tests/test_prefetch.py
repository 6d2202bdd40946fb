"""Tests for the prefetching refill engine (:mod:`repro.prefetch`).

Covers the golden hand-computed prefetch timeline, the demand-policy
byte-identity with the plain fetch unit, the exact-vs-vectorized
equivalence (property-tested over random streams and pinned on a real
workload), the prefetch-never-hurts invariant, counter reconciliation,
and the buffer / configuration surfaces.  The exact unit is the
reference model: these tests and ``benchmarks/bench_frontend.py
--check`` are where the timeline is compared with it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccrp.clb import CLB
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.memsys import EPROM
from repro.pipeline import FetchUnit
from repro.prefetch import (
    FETCH_POLICIES,
    FetchReplay,
    PrefetchBuffer,
    PrefetchEntry,
    PrefetchingFetchUnit,
    simulate_fetch_stream,
    validate_fetch_policy,
)

# ----------------------------------------------------------------------
# Golden hand-computed prefetch timeline
# ----------------------------------------------------------------------


class TestGoldenNextline:
    """A sequential walk over three lines, every cycle accounted by hand.

    Standard machine (no refill engine), EPROM, 64 B cache, 32 B lines:
    one full-line burst is 24 cycles.  Walking lines 0..2 word by word:

    * fetch @0 (shadow time 0): cold miss, 24-cycle stall; the next-line
      prefetch of line 1 starts at 24 and finishes at 48;
    * 7 hits advance the clock to 32;
    * fetch @32 (time 32): miss, buffer hit, residual 48-32 = 16 — a
      partial cover hiding 8 of the 24 cycles; line 2's prefetch queues
      behind the decoder (busy until 48) and finishes at 72;
    * 7 hits advance the clock to 56;
    * fetch @64 (time 56): residual 72-56 = 16 again, 8 more hidden.

    Totals: 56 stall cycles vs 72 demand, 16 covered, 3 issued, 2 useful
    (both partial), 1 still in flight.
    """

    def _run(self) -> PrefetchingFetchUnit:
        unit = PrefetchingFetchUnit(
            cache_bytes=64,
            memory=EPROM,
            policy="nextline",
            prefetch_depth=4,
            prefetch_bounds=(0, 4),
        )
        self.stalls = [unit.fetch(address) for address in range(0, 96, 4)]
        return unit

    def test_burst_assumption(self):
        assert EPROM.bytes_read_cycles(32) == 24

    def test_per_miss_stalls(self):
        self._run()
        misses = [stall for stall in self.stalls if stall]
        assert misses == [24, 16, 16]
        assert sum(self.stalls) == 56

    def test_counters(self):
        unit = self._run()
        counters = unit.counters()
        assert counters["misses"] == 3
        assert counters["prefetch_issued"] == 3
        assert counters["prefetch_useful"] == 2
        assert counters["prefetch_partial"] == 2
        assert counters["prefetch_useless"] == 0
        assert counters["prefetch_in_flight_at_exit"] == 1
        assert counters["prefetch_covered_stall_cycles"] == 16

    def test_demand_pays_full_price(self):
        unit = FetchUnit(cache_bytes=64, memory=EPROM)
        total = sum(unit.fetch(address) for address in range(0, 96, 4))
        assert total == 72  # 3 misses x 24 cycles — what prefetching beat


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

_ADDRESSES = st.lists(
    st.integers(min_value=0, max_value=1023).map(lambda word: word * 4),
    min_size=1,
    max_size=250,
)


@settings(max_examples=40, deadline=None)
@given(addresses=_ADDRESSES, cache_bytes=st.sampled_from((64, 256, 1024)))
def test_demand_policy_is_byte_identical_to_plain_unit(addresses, cache_bytes):
    """With policy="demand" the subclass must not change a single stall."""
    stream = np.array(addresses, dtype=np.int64)
    plain = FetchUnit(cache_bytes=cache_bytes, memory=EPROM)
    prefetching = PrefetchingFetchUnit(
        cache_bytes=cache_bytes, memory=EPROM, policy="demand"
    )
    for address in stream.tolist():
        assert plain.fetch(address) == prefetching.fetch(address)
    assert plain.counters() == {
        key: value
        for key, value in prefetching.counters().items()
        if not key.startswith("prefetch_") and key != "traffic_bytes"
    }


@settings(max_examples=40, deadline=None)
@given(
    addresses=_ADDRESSES,
    cache_bytes=st.sampled_from((64, 256)),
    policy=st.sampled_from(FETCH_POLICIES),
    depth=st.integers(min_value=1, max_value=6),
)
def test_exact_equals_timeline(addresses, cache_bytes, policy, depth):
    """The vectorized replay is byte-identical to the stateful unit."""
    stream = np.array(addresses, dtype=np.int64)
    unit = PrefetchingFetchUnit(
        cache_bytes=cache_bytes,
        memory=EPROM,
        policy=policy,
        prefetch_depth=depth,
    )
    stalls = sum(unit.fetch(address) for address in stream.tolist())
    exact = FetchReplay.from_unit(unit, stalls)
    timeline = simulate_fetch_stream(
        stream,
        cache_bytes,
        32,
        EPROM,
        policy=policy,
        prefetch_depth=depth,
    )
    assert exact == timeline


@settings(max_examples=40, deadline=None)
@given(addresses=_ADDRESSES, cache_bytes=st.sampled_from((64, 256)))
def test_prefetch_never_costs_more_than_demand(addresses, cache_bytes):
    """With a perfect CLB, the abandon cap guarantees a covered miss
    never exceeds its demand cost — so the total can only improve.  (A
    shared CLB can break strict dominance through pollution; see
    docs/modeling_notes.md §15.)"""
    stream = np.array(addresses, dtype=np.int64)
    demand = simulate_fetch_stream(stream, cache_bytes, 32, EPROM, policy="demand")
    prefetch = simulate_fetch_stream(stream, cache_bytes, 32, EPROM, policy="nextline")
    assert prefetch.fetch_stall_cycles <= demand.fetch_stall_cycles
    assert prefetch.misses == demand.misses  # miss stream is policy-invariant


@settings(max_examples=40, deadline=None)
@given(addresses=_ADDRESSES)
def test_counters_reconcile(addresses):
    """Every issued prefetch is eventually useful, useless, or in flight;
    hidden cycles plus the covered misses' residuals equal the demand
    bill those misses would have paid."""
    stream = np.array(addresses, dtype=np.int64)
    replay = simulate_fetch_stream(stream, 64, 32, EPROM, policy="nextline")
    assert replay.issued == replay.useful + replay.useless + replay.in_flight_at_exit
    assert replay.partial <= replay.useful
    assert replay.covered_stall_cycles >= 0
    assert replay.wasted_traffic_bytes <= replay.traffic_bytes


def test_real_workload_ccrp_equivalence():
    """Exact == timeline with the full CCRP machinery (refill + CLB) on a
    real trace prefix, for every policy."""
    from repro.core.artifacts import get_study

    study = get_study("eightq")
    addresses = study.execution.trace.addresses[:30_000]
    for policy in FETCH_POLICIES:
        engine = study.refill_engine("sc_dram", SystemConfig().decoder)
        unit = PrefetchingFetchUnit(
            256,
            "sc_dram",
            refill=engine,
            clb=CLB(entries=8),
            policy=policy,
        )
        stalls = sum(unit.fetch(int(address)) for address in addresses)
        exact = FetchReplay.from_unit(unit, stalls)
        timeline = simulate_fetch_stream(
            addresses,
            256,
            32,
            "sc_dram",
            refill=engine,
            clb=CLB(entries=8),
            policy=policy,
        )
        assert exact == timeline, policy


# ----------------------------------------------------------------------
# Buffer units
# ----------------------------------------------------------------------


class TestPrefetchBuffer:
    def test_fifo_eviction(self):
        buffer = PrefetchBuffer(depth=2)
        first = PrefetchEntry(line=1, issue_time=0, finish_time=10)
        buffer.insert(first)
        buffer.insert(PrefetchEntry(line=2, issue_time=1, finish_time=11))
        evicted = buffer.insert(PrefetchEntry(line=3, issue_time=2, finish_time=12))
        assert evicted == first
        assert 1 not in buffer and 2 in buffer and 3 in buffer

    def test_pop_removes(self):
        buffer = PrefetchBuffer(depth=2)
        entry = PrefetchEntry(line=5, issue_time=0, finish_time=9)
        buffer.insert(entry)
        assert buffer.pop(5) == entry
        assert buffer.pop(5) is None
        assert len(buffer) == 0

    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PrefetchBuffer(depth=0)


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------


def test_validate_fetch_policy():
    for name in FETCH_POLICIES:
        assert validate_fetch_policy(name) == name
    for name in ("oracle", "btb"):
        with pytest.raises(ConfigurationError):
            validate_fetch_policy(name)


def test_config_requires_pipeline_backend():
    with pytest.raises(ConfigurationError):
        SystemConfig(fetch_policy="nextline", timing="additive")


def test_config_rejects_critical_word_first_combination():
    with pytest.raises(ConfigurationError):
        SystemConfig(
            fetch_policy="nextline", timing="pipeline", critical_word_first=True
        )


def test_config_accepts_prefetching_pipeline():
    config = SystemConfig(fetch_policy="nextline", timing="pipeline", prefetch_depth=8)
    assert config.fetch_policy == "nextline"
    assert config.prefetch_depth == 8
