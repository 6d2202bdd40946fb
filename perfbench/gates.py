"""Correctness gates.  Each returns a list of problems; empty means pass.

No metric is printed for a run whose gate reports a problem.
"""

from __future__ import annotations

from pathlib import Path


def reproduce_gate(
    results_dir: Path,
    cold_dir: Path,
    warm_dir: Path,
    cold_names: list[str],
    warm_names: list[str],
) -> list[str]:
    """Committed ``results/`` byte-identical; warm outputs equal cold ones."""
    problems = []
    for expected in sorted(results_dir.iterdir()):
        produced = cold_dir / expected.name
        if not produced.is_file():
            problems.append(f"results/{expected.name}: not produced")
        elif produced.read_bytes() != expected.read_bytes():
            problems.append(f"results/{expected.name}: differs from committed output")
    for name in cold_names:
        for suffix in (".json", ".txt"):
            if not (cold_dir / f"{name}{suffix}").is_file():
                problems.append(f"{name}{suffix}: cold pass wrote nothing")
    for name in warm_names:
        for suffix in (".json", ".txt"):
            cold = cold_dir / f"{name}{suffix}"
            warm = warm_dir / f"{name}{suffix}"
            if not warm.is_file() or not cold.is_file():
                problems.append(f"{name}{suffix}: missing from a pass")
            elif warm.read_bytes() != cold.read_bytes():
                problems.append(f"{name}{suffix}: warm pass differs from cold")
    return problems


def direct_compress(data: bytes) -> tuple[dict, bytes]:
    """What ``compress`` must return, computed in this process."""
    from repro.ccrp.compressor import ProgramCompressor
    from repro.core.standard import standard_code

    image = ProgramCompressor(standard_code()).compress(data)
    meta = {
        "line_size": image.line_size,
        "original_size": image.original_size,
        "block_sizes": [block.stored_size for block in image.blocks],
        "compressed_flags": [bool(block.is_compressed) for block in image.blocks],
    }
    return meta, b"".join(block.data for block in image.blocks)


def compress_gate(data: bytes, meta: dict, blob: bytes) -> list[str]:
    """A service ``compress`` answer equals direct ``ProgramCompressor`` output."""
    want_meta, want_blob = direct_compress(data)
    problems = [
        f"compress {key}: {meta.get(key)!r} != {value!r}"
        for key, value in want_meta.items()
        if meta.get(key) != value
    ]
    if blob != want_blob:
        problems.append(f"compress blob of {len(data)} B differs from direct output")
    return problems


def round_trip_gate(original: bytes, returned: bytes) -> list[str]:
    if returned != original:
        return [f"round trip of {len(original)} B returned different bytes"]
    return []
