"""Benchmark: the vectorized memory-system timeline kernels.

Measures the cache→CLB→refill stage of the full performance grid
(Tables 1-8 + Figure 9 + Tables 9-10): for every simulation program, the
exact multiset of CLB simulations and refill-table builds the grid
performs, timed once through the per-probe reference models
(``CCRP_REFERENCE`` path: the stateful :class:`repro.ccrp.clb.CLB`
and the per-block ``RefillEngine`` loop) and once through the array
kernels (stack-distance miss curves and
:meth:`repro.ccrp.decoder.DecoderModel.refill_cycles_table`).  The cache
miss streams are precomputed identically for both arms, so the timings
isolate exactly the code this optimisation replaced.

Equivalence is asserted on every run, never sampled: each arm's CLB miss
counts, refill-cycle tables and fetched-byte tables must match the
reference bit for bit, and the batch Huffman line decode must match a
per-line ``decode`` loop, before any timing is recorded.

Honest-gate conventions (same as ``bench_harness.py``): the record
carries the CPU affinity and repeat count; ``--smoke`` runs a small
workload subset suitable for CI, where the full-grid speedup target is
*skipped with a recorded reason* instead of being claimed from a
constrained runner.  ``--check`` exits nonzero on an equivalence failure
or a vectorized-slower-than-reference regression.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_memsys.py

and it writes ``BENCH_memsys.json`` next to the repo's other results.
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

import numpy as np

from repro.ccrp.clb import CLB
from repro.ccrp.decoder import DecoderModel
from repro.ccrp.refill import RefillEngine
from repro.ccrp.stackdist import lru_miss_count, lru_miss_curve
from repro.core.sweep import available_cpus
from repro.lat.entry import LINES_PER_ENTRY
from repro.workloads.suite import SIMULATION_PROGRAMS

SCHEMA = "ccrp-bench-memsys/1"

#: The grid's cache axis (Tables 1-8, reused by Figure 9 and Tables 9-10).
CACHE_SIZES = (256, 512, 1024, 2048, 4096)

#: Figure 9 sweeps all three memory models; the tables use the first two.
MEMORY_MODELS = ("eprom", "burst_eprom", "sc_dram")

#: Tables 9-10 sweep the CLB axis for these two programs only; everything
#: else runs at the default 16 entries.
CLB_AXIS_PROGRAMS = ("nasa7", "espresso")
CLB_ENTRIES_AXIS = (16, 8, 4)

#: CI subset: traces cheap enough to simulate cold on a small runner.
SMOKE_PROGRAMS = ("eightq", "lloop01")

#: The full-grid claim this PR makes; only asserted on full (non-smoke)
#: runs on an unconstrained machine.
TARGET_GEOMEAN = 10.0


def _best_of(repeats: int, fn) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _clb_axis(program: str) -> tuple[int, ...]:
    return CLB_ENTRIES_AXIS if program in CLB_AXIS_PROGRAMS else (16,)


def _assert_equivalent(program: str, study, streams: dict[int, np.ndarray]) -> None:
    """Reference and vectorized arms must agree before timing means anything."""
    decoder = DecoderModel()
    for cache_bytes, stream in streams.items():
        curve = lru_miss_curve(stream)
        for entries in _clb_axis(program):
            reference = CLB(entries=entries).simulate(stream)
            vectorized = lru_miss_count(curve, entries)
            if reference != vectorized:
                raise AssertionError(
                    f"{program}: CLB miss counts diverge at cache={cache_bytes} "
                    f"entries={entries}: reference {reference}, curve {vectorized}"
                )
    for memory in MEMORY_MODELS:
        reference = RefillEngine(study.image, memory, decoder, vectorized=False)
        vectorized = RefillEngine(study.image, memory, decoder, vectorized=True)
        if not np.array_equal(reference.ccrp_refill_cycles, vectorized.ccrp_refill_cycles):
            raise AssertionError(f"{program}: refill-cycle tables diverge on {memory}")
        if not np.array_equal(
            reference.fetched_bytes_per_line, vectorized.fetched_bytes_per_line
        ):
            raise AssertionError(f"{program}: fetched-byte tables diverge on {memory}")
    image = study.image
    blobs = [block.data for block in image.blocks if block.is_compressed]
    if blobs:
        batch = image.code.decode_lines(blobs, image.line_size)
        per_line = [image.code.decode(blob, image.line_size) for blob in blobs]
        if batch != per_line:
            raise AssertionError(f"{program}: batch line decode diverges from decode")


def _time_stage(program: str, study, streams: dict[int, np.ndarray], repeats: int) -> dict:
    """Best-of-``repeats`` wall time of each arm's full grid workload."""
    decoder = DecoderModel()
    axis = _clb_axis(program)

    def reference_arm() -> None:
        for stream in streams.values():
            for entries in axis:
                CLB(entries=entries).simulate(stream)
        for memory in MEMORY_MODELS:
            RefillEngine(study.image, memory, decoder, vectorized=False)

    def vectorized_arm() -> None:
        for stream in streams.values():
            curve = lru_miss_curve(stream)
            for entries in axis:
                lru_miss_count(curve, entries)
        for memory in MEMORY_MODELS:
            RefillEngine(study.image, memory, decoder, vectorized=True)

    reference_seconds = _best_of(repeats, reference_arm)
    vectorized_seconds = _best_of(repeats, vectorized_arm)
    return {
        "probes": {str(cb): int(stream.size) for cb, stream in streams.items()},
        "clb_entries_axis": list(axis),
        "reference_seconds": reference_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": reference_seconds / vectorized_seconds,
    }


def _time_decode(study, repeats: int) -> dict | None:
    """Batch vs per-line Huffman decode over the image's blocks."""
    image = study.image
    blobs = [block.data for block in image.blocks if block.is_compressed]
    if not blobs:
        return None
    scalar_seconds = _best_of(
        repeats, lambda: [image.code.decode(blob, image.line_size) for blob in blobs]
    )
    batch_seconds = _best_of(
        repeats, lambda: image.code.decode_lines(blobs, image.line_size)
    )
    return {
        "compressed_blocks": len(blobs),
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "speedup": scalar_seconds / batch_seconds,
    }


def run_benchmark(programs: tuple[str, ...], repeats: int, smoke: bool) -> dict:
    cpus = available_cpus()
    record: dict = {
        "schema": SCHEMA,
        "programs": list(programs),
        "cache_sizes": list(CACHE_SIZES),
        "memory_models": list(MEMORY_MODELS),
        "repeats": repeats,
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": cpus,
        "stage": {},
        "decode": {},
    }
    speedups = []
    for program in programs:
        study = get_study(program)
        streams = {
            cache_bytes: study.cache_stats(cache_bytes).miss_lines // LINES_PER_ENTRY
            for cache_bytes in CACHE_SIZES
        }
        _assert_equivalent(program, study, streams)
        stage = _time_stage(program, study, streams, repeats)
        record["stage"][program] = stage
        speedups.append(stage["speedup"])
        decode = _time_decode(study, repeats)
        if decode is not None:
            record["decode"][program] = decode

    record["equivalent"] = True  # _assert_equivalent raised otherwise
    record["geomean_stage_speedup"] = math.exp(
        sum(math.log(s) for s in speedups) / len(speedups)
    )
    record["target_geomean"] = TARGET_GEOMEAN
    if smoke:
        record["target_skipped"] = True
        record["target_skip_reason"] = (
            f"smoke subset {list(programs)} on a CI runner "
            f"({cpus} CPU(s) available) verifies equivalence and "
            "non-regression only; the full-grid speedup claim is measured "
            "by a full run of this benchmark"
        )
        record["target_met"] = None
    else:
        record["target_skipped"] = False
        record["target_skip_reason"] = None
        record["target_met"] = record["geomean_stage_speedup"] >= TARGET_GEOMEAN
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_memsys.json",
        help="where to write the timing record",
    )
    parser.add_argument(
        "--programs",
        nargs="+",
        default=None,
        help="workloads to measure (default: the full simulation suite)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: small workload subset, speedup target skipped with "
        "a recorded reason",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: exit nonzero on an equivalence failure or a "
        "vectorized-slower-than-reference geomean",
    )
    args = parser.parse_args(argv)

    if args.programs is not None:
        programs = tuple(args.programs)
    elif args.smoke:
        programs = SMOKE_PROGRAMS
    else:
        programs = SIMULATION_PROGRAMS

    try:
        record = run_benchmark(programs, repeats=args.repeats, smoke=args.smoke)
    except AssertionError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))

    geomean = record["geomean_stage_speedup"]
    if geomean < 1.0:
        message = (
            f"vectorized stage is slower than the reference "
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
            f"full-grid geomean {geomean:.2f}x is below the "
            f"{TARGET_GEOMEAN:.0f}x target"
        )
        if args.check:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
        print(f"WARNING: {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
