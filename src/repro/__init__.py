"""Compressed Code RISC Processor (CCRP) — reproduction library.

This package reproduces Wolfe & Chanin, *Executing Compressed Programs on
an Embedded RISC Architecture* (MICRO-25, 1992): a MIPS-I substrate, the
block-bounded Huffman compression family, the Line Address Table (LAT) and
Cache Line Address Lookaside Buffer (CLB), code-expanding instruction-cache
refill timing, embedded memory models, and the trace-driven performance
comparison between a standard RISC system and a CCRP.

Quickstart::

    from repro import workloads, ccrp, core

    program = workloads.load("eightq")
    config = core.SystemConfig(cache_bytes=1024, memory="burst_eprom")
    report = core.compare(program, config)
    print(report.relative_execution_time)
"""

__version__ = "1.0.0"

import os as _os

#: Set to a truthy value (``1``/``true``/``yes``/``on``) to force every
#: golden reference model: the per-instruction stepping executor and the
#: scalar memory-system paths (stateful CLB walk, per-block refill loops,
#: per-line decode).  CI uses it to check that the fast paths render
#: byte-identical experiment outputs.
REFERENCE_ENV = "CCRP_REFERENCE"


def reference_mode() -> bool:
    """True when the environment forces the golden reference models."""
    return _os.environ.get(REFERENCE_ENV, "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }
