"""Benchmark: prefetching fetch path — exact unit vs vectorized timeline.

Measures the front-end replay substrate the prefetch study runs on: for
every simulation workload and every fetch policy it times

* the stateful exact front end
  (:class:`repro.prefetch.engine.PrefetchingFetchUnit`) driven one
  access at a time over a bounded prefix, extrapolated to full-trace
  cost, and
* the vectorized miss-event replay
  (:func:`repro.prefetch.simulate_fetch_stream`) over the same prefix —
  what the study tables and ``SystemConfig(fetch_policy=...)`` actually
  run,

and reports fetch accesses per second for each plus the
timeline-over-exact speedup.  **Equivalence is asserted before any
timing is recorded**: the two backends' :class:`FetchReplay` snapshots —
every stall and every counter — must compare equal on the measured
prefix, so the speedup claim is tied to a byte-identity gate.

Honest-gate conventions (same as ``bench_memsys.py``): ``--smoke`` runs
a small workload subset with a short prefix where the full-suite speedup
target is *skipped with a recorded reason* instead of being claimed from
a constrained CI runner; ``--check`` exits nonzero on an equivalence
failure or a timeline-slower-than-exact regression.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_frontend.py

and it writes ``BENCH_frontend.json`` next to the repo's other records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.core.artifacts import get_study
except ImportError:  # running as a script without the package installed
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.artifacts import get_study

SCHEMA = "ccrp-bench-frontend/1"
CACHE_BYTES = 256
CLB_ENTRIES = 16
MEMORY = "sc_dram"
POLICIES = ("demand", "nextline")
DEFAULT_EXACT_PREFIX = 200_000
SMOKE_PROGRAMS = ("lloop01", "eightq", "nasa7")
SMOKE_EXACT_PREFIX = 60_000
#: Full-suite geomean the vectorized path must beat — the keep-honest
#: floor under the ~4x measured on the development machine (the margin
#: is modest because the exact unit's per-access loop is itself cheap;
#: the win scales with the miss rate, e.g. ~17x on eightq @ 256 B).
TARGET_GEOMEAN = 2.0


def _best_of(thunk, repeats: int):
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = thunk()
        best = min(best, time.perf_counter() - started)
    return best, value


def _measure_cell(study, policy: str, prefix, repeats: int) -> dict:
    """Equivalence-gate then time one (workload, policy) cell."""
    from repro.ccrp.clb import CLB
    from repro.core.config import SystemConfig
    from repro.prefetch import (
        FetchReplay,
        PrefetchingFetchUnit,
        simulate_fetch_stream,
    )

    decoder = SystemConfig().decoder
    engine = study.refill_engine(MEMORY, decoder)

    def run_exact() -> FetchReplay:
        unit = PrefetchingFetchUnit(
            CACHE_BYTES,
            MEMORY,
            refill=engine,
            clb=CLB(entries=CLB_ENTRIES),
            policy=policy,
        )
        stalls = 0
        for address in prefix.tolist():
            stalls += unit.fetch(address)
        return FetchReplay.from_unit(unit, stalls)

    def run_timeline() -> FetchReplay:
        return simulate_fetch_stream(
            prefix,
            CACHE_BYTES,
            32,
            MEMORY,
            refill=engine,
            clb=CLB(entries=CLB_ENTRIES),
            policy=policy,
        )

    # The gate comes first: no timing is recorded for a cell whose
    # backends disagree.
    exact_replay = run_exact()
    timeline_replay = run_timeline()
    assert exact_replay == timeline_replay, (
        f"{study.workload.name}/{policy}: exact and vectorized fetch "
        f"replays differ on a {len(prefix)}-access prefix"
    )

    exact_seconds, _ = _best_of(run_exact, repeats)
    timeline_seconds, _ = _best_of(run_timeline, repeats)
    accesses = len(prefix)
    return {
        "accesses": accesses,
        "misses": exact_replay.misses,
        "fetch_stall_cycles": exact_replay.fetch_stall_cycles,
        "exact_seconds": exact_seconds,
        "timeline_seconds": timeline_seconds,
        "exact_accesses_per_second": accesses / exact_seconds,
        "timeline_accesses_per_second": accesses / timeline_seconds,
        "timeline_speedup_over_exact": exact_seconds / timeline_seconds,
        "equivalent": True,
    }


def run_benchmark(programs, exact_prefix: int, repeats: int, smoke: bool) -> dict:
    import numpy as np

    process_cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    record = {
        "schema": SCHEMA,
        "programs": list(programs),
        "policies": list(POLICIES),
        "cache_bytes": CACHE_BYTES,
        "memory": MEMORY,
        "clb_entries": CLB_ENTRIES,
        "exact_prefix": exact_prefix,
        "repeats": repeats,
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": process_cpus,
        "workloads": {},
    }
    speedups = []
    for program in programs:
        study = get_study(program)
        prefix = np.ascontiguousarray(
            study.execution.trace.addresses[:exact_prefix], dtype=np.int64
        )
        cells = {}
        for policy in POLICIES:
            cells[policy] = _measure_cell(study, policy, prefix, repeats)
            speedups.append(cells[policy]["timeline_speedup_over_exact"])
        record["workloads"][program] = cells

    record["equivalent"] = True  # _measure_cell raised otherwise
    record["geomean_timeline_speedup"] = math.exp(
        sum(math.log(s) for s in speedups) / len(speedups)
    )
    record["target_geomean"] = TARGET_GEOMEAN
    if smoke:
        record["target_skipped"] = True
        record["target_skip_reason"] = (
            f"smoke subset {list(programs)} with a {exact_prefix}-access "
            f"prefix on a CI runner ({process_cpus} CPU(s) available) "
            "verifies equivalence and non-regression only; the full-suite "
            "speedup claim is measured by a full run of this benchmark"
        )
        record["target_met"] = None
    else:
        record["target_skipped"] = False
        record["target_skip_reason"] = None
        record["target_met"] = record["geomean_timeline_speedup"] >= TARGET_GEOMEAN
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_frontend.json",
        help="where to write the timing record",
    )
    parser.add_argument(
        "--programs",
        nargs="+",
        default=None,
        help="workloads to measure (default: the full simulation suite)",
    )
    parser.add_argument("--exact-prefix", type=int, default=DEFAULT_EXACT_PREFIX)
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: small workload subset and short prefix; the speedup "
        "target is skipped with a recorded reason",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: exit nonzero on an equivalence failure or a "
        "timeline-slower-than-exact geomean",
    )
    args = parser.parse_args(argv)

    from repro.workloads.suite import SIMULATION_PROGRAMS

    if args.programs is not None:
        programs = tuple(args.programs)
    elif args.smoke:
        programs = SMOKE_PROGRAMS
    else:
        programs = SIMULATION_PROGRAMS
    exact_prefix = (
        min(args.exact_prefix, SMOKE_EXACT_PREFIX) if args.smoke else args.exact_prefix
    )

    try:
        record = run_benchmark(
            programs, exact_prefix=exact_prefix, repeats=args.repeats, smoke=args.smoke
        )
    except AssertionError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))

    geomean = record["geomean_timeline_speedup"]
    if geomean < 1.0:
        message = (
            f"vectorized fetch replay is slower than the exact unit "
            f"(geomean {geomean:.2f}x over {list(programs)})"
        )
        if args.check:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
        print(f"WARNING: {message}", file=sys.stderr)
    if record["target_skipped"]:
        # Never silent: the record and the log both carry the reason.
        print(f"SKIP (speedup target): {record['target_skip_reason']}", file=sys.stderr)
    elif not record["target_met"]:
        message = (
            f"full-suite geomean {geomean:.2f}x is below the "
            f"{TARGET_GEOMEAN:.0f}x target"
        )
        if args.check:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
        print(f"WARNING: {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
