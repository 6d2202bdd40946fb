"""Benchmark: superop execution engine and vectorized Huffman encode.

Measures the *simulator substrate*, not the paper's results: for every
tier-1 workload it times the per-instruction stepping engine ("old":
``block_mode=False``, one generated function per instruction built from
the same source emitter as the superops, plus the scalar BitWriter
encode path the repo shipped with) against the basic-block superop
engine ("new": ``block_mode=True`` plus vectorized encode), and reports

* executed instructions per second under each engine,
* Huffman encode throughput (MB/s), scalar vs vectorized, and
* the end-to-end cold-run speedup — fresh subprocess per mode, each
  running the whole suite (execute, materialise trace arrays, compress
  the text segment) with timing taken inside the subprocess so
  interpreter start-up is excluded from both sides equally.

The "new" cold run is a *steady-state* cold run: compiled superops are
loaded from the on-disk artifact cache (primed by a throwaway run),
exactly as a second ``ccrp-experiments`` invocation would find them —
the same way CPython reuses ``.pyc`` files.  ``true_cold_seconds`` is
also recorded, with that cache empty, so compile cost stays visible.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_executor.py

and it writes ``BENCH_executor.json``.  The committed record predates
the emitter-built stepping engine: its "old" figures were taken with a
hand-written per-instruction closure interpreter.  ``--smoke`` runs one
workload under both engines and fails on any result mismatch (CI uses
this); ``--metrics FILE`` writes the record to an extra location.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_MAX_INSTRUCTIONS = 4_000_000
SMOKE_WORKLOAD = "lloop01"


# ----------------------------------------------------------------------
# Old-world emulation
# ----------------------------------------------------------------------


def _force_scalar_encode() -> None:
    """Restore the seed's per-line scalar compression path, in place.

    ``HuffmanCode.encode`` becomes the BitWriter loop and
    ``encode_lines`` reports "unsupported" so ``compress_program`` falls
    back to per-line ``compress_line`` — the pre-vectorization code
    shape, byte-identical output.
    """
    from repro.compression.huffman import HuffmanCode

    HuffmanCode.encode = HuffmanCode._encode_scalar  # type: ignore[method-assign]
    HuffmanCode.encode_lines = (  # type: ignore[method-assign]
        lambda self, text, line_size: None
    )


# ----------------------------------------------------------------------
# In-process measurements
# ----------------------------------------------------------------------


def _run_once(name: str, block_mode: bool, max_instructions: int) -> tuple[float, int]:
    """One end-to-end workload pass; returns (seconds, executed count).

    End-to-end means what a study consumes: execute, then materialise
    the flat address array, the per-instruction execution counts, and
    the per-line address stream the cache simulators walk.
    """
    from repro.machine.executor import Machine
    from repro.workloads.suite import load

    workload = load(name)
    started = time.perf_counter()
    machine = Machine(workload.program, block_mode=block_mode)
    result = machine.run(max_instructions=max_instructions, stop_at_limit=True)
    trace = result.trace
    trace.addresses
    trace.execution_counts()
    trace.line_addresses()
    return time.perf_counter() - started, result.instructions_executed


def _best_of(name: str, block_mode: bool, max_instructions: int, repeats: int) -> tuple[float, int]:
    best = float("inf")
    executed = 0
    for _ in range(repeats):
        seconds, executed = _run_once(name, block_mode, max_instructions)
        best = min(best, seconds)
    return best, executed


def _compress_seconds(name: str, repeats: int) -> float:
    from repro.compression.block import BlockCompressor
    from repro.core.standard import standard_code
    from repro.workloads.suite import load

    compressor = BlockCompressor(standard_code())
    text = load(name).text
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        compressor.compress_program(text)
        best = min(best, time.perf_counter() - started)
    return best


def _encode_throughput(repeats: int) -> dict:
    """Raw ``HuffmanCode.encode`` MB/s, scalar vs vectorized, suite text."""
    from repro.core.standard import standard_code
    from repro.workloads.suite import SIMULATION_PROGRAMS, load

    code = standard_code()
    text = b"".join(load(name).text for name in SIMULATION_PROGRAMS)
    timings = {}
    for label, encode in (
        ("scalar", code._encode_scalar),
        ("vectorized", code.encode),
    ):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            encoded, bits = encode(text)
            best = min(best, time.perf_counter() - started)
        timings[label] = best
    reference = code._encode_scalar(text)
    assert code.encode(text) == reference, "vectorized encode diverged from scalar"
    megabytes = len(text) / 1e6
    return {
        "input_bytes": len(text),
        "scalar_mb_per_second": megabytes / timings["scalar"],
        "vectorized_mb_per_second": megabytes / timings["vectorized"],
        "speedup": timings["scalar"] / timings["vectorized"],
    }


# ----------------------------------------------------------------------
# Cold-run subprocess protocol
# ----------------------------------------------------------------------


def _worker(mode: str, max_instructions: int) -> int:
    """Subprocess body: run the whole suite end-to-end, print timings."""
    from repro.workloads.suite import SIMULATION_PROGRAMS

    block_mode = mode == "new"
    if not block_mode:
        _force_scalar_encode()
    per_workload = {}
    total = 0.0
    for name in SIMULATION_PROGRAMS:
        seconds, executed = _run_once(name, block_mode, max_instructions)
        seconds += _compress_seconds(name, repeats=1)
        per_workload[name] = {"seconds": seconds, "instructions": executed}
        total += seconds
    print(json.dumps({"mode": mode, "total_seconds": total, "workloads": per_workload}))
    return 0


def _spawn_worker(mode: str, cache_dir: Path, max_instructions: int) -> dict:
    env = dict(os.environ, CCRP_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--worker",
            mode,
            "--max-instructions",
            str(max_instructions),
        ],
        env=env,
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _cold_runs(max_instructions: int) -> dict:
    """Fresh-process suite timings: old engine vs steady-state-cold new."""
    scratch = Path(tempfile.mkdtemp(prefix="ccrp-bench-executor-"))
    try:
        cache_dir = scratch / "cache"
        old = _spawn_worker("old", scratch / "old-cache", max_instructions)
        true_cold = _spawn_worker("new", cache_dir, max_instructions)
        new = _spawn_worker("new", cache_dir, max_instructions)
        return {
            "old_seconds": old["total_seconds"],
            "new_true_cold_seconds": true_cold["total_seconds"],
            "new_seconds": new["total_seconds"],
            "speedup": old["total_seconds"] / new["total_seconds"],
            "true_cold_speedup": old["total_seconds"] / true_cold["total_seconds"],
            "old_workloads": old["workloads"],
            "new_workloads": new["workloads"],
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Equivalence (the --smoke gate)
# ----------------------------------------------------------------------


def _assert_equivalent(name: str, max_instructions: int) -> None:
    """Run ``name`` under both engines and demand identical results."""
    import numpy as np

    from repro.machine.executor import Machine
    from repro.workloads.suite import load

    program = load(name).program
    results = {}
    for block_mode in (False, True):
        machine = Machine(program, block_mode=block_mode)
        results[block_mode] = machine.run(
            max_instructions=max_instructions, stop_at_limit=True
        )
    old, new = results[False], results[True]
    mismatches = []
    if not np.array_equal(old.trace.addresses, new.trace.addresses):
        mismatches.append("trace addresses")
    if not np.array_equal(
        old.trace.execution_counts(), new.trace.execution_counts()
    ):
        mismatches.append("execution counts")
    for attribute in (
        "registers",
        "output",
        "stall_cycles",
        "exit_code",
        "instructions_executed",
    ):
        if getattr(old, attribute) != getattr(new, attribute):
            mismatches.append(attribute)
    if mismatches:
        raise SystemExit(
            f"engine mismatch on {name!r}: {', '.join(mismatches)}"
        )


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


def run_benchmark(max_instructions: int, repeats: int) -> dict:
    from repro.core import artifacts
    from repro.workloads.suite import SIMULATION_PROGRAMS

    workloads = {}
    with artifacts.cache_disabled():
        for name in SIMULATION_PROGRAMS:
            old_seconds, executed = _best_of(
                name, False, max_instructions, repeats
            )
            new_seconds, _ = _best_of(name, True, max_instructions, repeats)
            workloads[name] = {
                "instructions": executed,
                "old_instructions_per_second": executed / old_seconds,
                "new_instructions_per_second": executed / new_seconds,
                "speedup": old_seconds / new_seconds,
            }

    cold = _cold_runs(max_instructions)
    return {
        "schema": "ccrp-bench-executor/1",
        "max_instructions": max_instructions,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
        "encode": _encode_throughput(repeats),
        "cold_run": cold,
        "cold_run_speedup": cold["speedup"],
    }


def run_smoke(max_instructions: int) -> dict:
    """One workload, both engines, hard equivalence check (CI gate)."""
    started = time.perf_counter()
    _assert_equivalent(SMOKE_WORKLOAD, max_instructions)
    return {
        "schema": "ccrp-bench-executor-smoke/1",
        "workload": SMOKE_WORKLOAD,
        "max_instructions": max_instructions,
        "equivalent": True,
        "elapsed_seconds": time.perf_counter() - started,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_executor.json",
        help="where to write the timing record",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        metavar="FILE",
        help="also write the record (or smoke result) to FILE",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: one workload, both engines, equivalence only",
    )
    parser.add_argument("--max-instructions", type=int, default=DEFAULT_MAX_INSTRUCTIONS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--worker", choices=("old", "new"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return _worker(args.worker, args.max_instructions)

    if args.smoke:
        record = run_smoke(min(args.max_instructions, 1_000_000))
    else:
        record = run_benchmark(args.max_instructions, args.repeats)
        args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    if args.metrics:
        args.metrics.parent.mkdir(parents=True, exist_ok=True)
        args.metrics.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps(record, indent=2, sort_keys=True))
    if not args.smoke and record["cold_run_speedup"] < 3.0:
        print(
            f"WARNING: cold-run speedup {record['cold_run_speedup']:.2f}x "
            "is below the 3x target",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
