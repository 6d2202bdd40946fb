"""``ccrp-run`` — assemble and execute a program on the functional simulator."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfigurationError, ReproError
from repro.isa.assembler import Assembler
from repro.machine.executor import Machine
from repro.machine.profile import profile


def _pipeline_report(
    program,
    result,
    memory_name: str,
    cache_bytes: int,
    fetch_policy: str = "demand",
    prefetch_depth: int = 4,
) -> dict:
    """Cycle totals of the standard machine under the pipeline backend.

    The fetch path is the baseline one (no compression): misses of a
    direct-mapped cache each freeze the pipeline for one full-line burst
    of the chosen memory model.  A prefetching policy overlaps part of
    those bursts with execution (see :mod:`repro.prefetch`); the report
    then carries the prefetch counter block too.
    """
    from repro.cache.direct_mapped import simulate_trace
    from repro.memsys.models import get_memory_model
    from repro.pipeline.timeline import BlockTable, replay_trace
    from repro.prefetch import simulate_fetch_stream

    memory = get_memory_model(memory_name)
    line_size = 32
    stats = simulate_trace(result.trace.addresses, cache_bytes, line_size)
    prefetch = None
    if fetch_policy == "demand":
        fetch_stalls = stats.misses * memory.bytes_read_cycles(line_size)
    else:
        text_lines = (len(program.text) + line_size - 1) // line_size
        prefetch = simulate_fetch_stream(
            result.trace.addresses,
            cache_bytes,
            line_size,
            memory,
            policy=fetch_policy,
            prefetch_depth=prefetch_depth,
            prefetch_bounds=(program.text_base // line_size, text_lines),
        )
        fetch_stalls = prefetch.fetch_stall_cycles
    table = BlockTable(program.instructions, text_base=program.text_base)
    replay = replay_trace(
        result.trace,
        program.instructions,
        block_table=table,
        fetch_stall_cycles=fetch_stalls,
        fetch_misses=stats.misses,
    )
    report = replay.breakdown()
    report["memory"] = memory.name
    report["cache_bytes"] = cache_bytes
    report["misses"] = stats.misses
    report["fetch_policy"] = fetch_policy
    if prefetch is not None:
        report["prefetch"] = prefetch.prefetch_counters()
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccrp-run",
        description="Assemble and execute MIPS-I source; prints the program's "
        "syscall output and execution statistics.",
    )
    parser.add_argument("source", type=Path, help="assembly source file")
    parser.add_argument(
        "--max-instructions", type=int, default=4_000_000, help="dynamic limit"
    )
    parser.add_argument(
        "--stop-at-limit",
        action="store_true",
        help="truncate instead of failing when the limit is hit",
    )
    parser.add_argument("--profile", action="store_true", help="print a pixie-style profile")
    parser.add_argument(
        "--timing",
        default="additive",
        metavar="{additive,pipeline}",
        help="timing backend for the cycle report (default: additive)",
    )
    parser.add_argument(
        "--memory",
        default="eprom",
        metavar="{eprom,burst_eprom,sc_dram}",
        help="instruction-memory model for --timing pipeline fetch stalls",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=1024,
        help="instruction-cache size for --timing pipeline (default: 1024)",
    )
    parser.add_argument(
        "--fetch-policy",
        default="demand",
        metavar="{demand,nextline}",
        help="front-end refill policy for --timing pipeline (default: demand)",
    )
    parser.add_argument(
        "--prefetch-depth",
        type=int,
        default=4,
        help="prefetch-buffer capacity in lines (default: 4)",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        metavar="FILE",
        help="write the per-category stall counters as JSON",
    )
    args = parser.parse_args(argv)

    try:
        # Validate the configuration up front so a typo in --timing or
        # --memory fails with a clear one-line error and a nonzero exit,
        # not an exception spill halfway through a long execution.
        from repro.core.config import validate_timing
        from repro.memsys.models import get_memory_model
        from repro.prefetch import validate_fetch_policy

        validate_timing(args.timing)
        get_memory_model(args.memory)
        validate_fetch_policy(args.fetch_policy)
        if args.fetch_policy != "demand" and args.timing != "pipeline":
            raise ConfigurationError(
                "--fetch-policy needs --timing pipeline (prefetching is a "
                "pipeline front-end model)"
            )
        if args.prefetch_depth < 1:
            raise ConfigurationError(
                f"--prefetch-depth needs at least one entry, got {args.prefetch_depth}"
            )
        if args.cache_bytes < 32:
            raise ConfigurationError(
                f"--cache-bytes must hold at least one 32 B line, got {args.cache_bytes}"
            )

        try:
            source = args.source.read_text()
        except UnicodeDecodeError as error:
            raise ConfigurationError(
                f"{args.source} is not text — assembly source must be valid "
                f"UTF-8 ({error.reason} at byte {error.start})"
            ) from error
        program = Assembler().assemble(source)
        result = Machine(program).run(
            max_instructions=args.max_instructions, stop_at_limit=args.stop_at_limit
        )
        report = None
        if args.timing == "pipeline":
            report = _pipeline_report(
                program,
                result,
                args.memory,
                args.cache_bytes,
                fetch_policy=args.fetch_policy,
                prefetch_depth=args.prefetch_depth,
            )
    except (OSError, ReproError) as error:
        print(f"ccrp-run: {error}", file=sys.stderr)
        return 1

    if result.output:
        print(result.output, end="" if result.output.endswith("\n") else "\n")
    print(
        f"[exit {result.exit_code}; {result.instructions_executed:,} instructions, "
        f"{result.data_accesses:,} data accesses, {result.stall_cycles:,} stall cycles]"
    )
    if report is not None:
        print(
            f"[pipeline @ {report['memory']}/{report['cache_bytes']} B cache: "
            f"{report['total']:,} cycles = {report['issue']:,} issue "
            f"+ {report['fill']} fill + {report['hazard']:,} hazard "
            f"+ {report['branch']:,} branch + {report['fetch']:,} fetch "
            f"({report['misses']:,} misses)]"
        )
        if "prefetch" in report:
            counters = report["prefetch"]
            print(
                f"[prefetch {report['fetch_policy']}: {counters['issued']:,} issued, "
                f"{counters['useful']:,} useful ({counters['partial']:,} partial), "
                f"{counters['useless']:,} useless, "
                f"{counters['covered_stall_cycles']:,} stall cycles hidden, "
                f"{counters['wasted_traffic_bytes']:,} B wasted traffic]"
            )
    if args.metrics:
        payload = {
            "timing": args.timing,
            "instructions": result.instructions_executed,
            "additive_stall_cycles": result.stall_cycles,
        }
        if report is not None:
            payload["pipeline"] = report
        args.metrics.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[wrote metrics to {args.metrics}]")
    if args.profile:
        print()
        print(profile(result, program).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
