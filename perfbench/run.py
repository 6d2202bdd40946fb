"""End-to-end benchmark of the CCRP reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 60 --trace 1
    python3 perfbench/run.py --self-test

Workloads (see ``perfbench/README.md``): ``reproduce`` (the thirteen
experiments cold, then the cache-served ones warm) and ``service-mix``
(``ccrp-serve`` under seeded closed-loop request mixes, cold then warm).
Each does a fixed amount of work; ``--seconds`` is recorded, not used
to stop early, so counters repeat exactly.

The program is measured from outside: each pass runs in a fresh
interpreter (``reproduce``) or server (``service-mix``) with its
``CCRP_CACHE_DIR`` under ``.perfbench/`` and calls public entry points.  A correctness gate checks every output
before anything is printed.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  The line before it records the seed, the host's
steal ticks and load average before and after, CPU affinity and
``nproc``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gates  # noqa: E402
from tracing import LAYERS, Tracer, wrapper_costs  # noqa: E402

#: ``ccrp-experiments all`` order.
EXPERIMENTS = (
    "figure5",
    "tables1-8",
    "tables9-10",
    "figure9",
    "tables11-13",
    "ablations",
    "extensions",
    "dense-isa",
    "bus-width",
    "cross-isa",
    "pipeline-validation",
    "fault-study",
    "prefetch-study",
)
#: The experiments whose work the artifact cache serves on a warm run
#: (warm time under a quarter of cold).  extensions, dense-isa,
#: cross-isa, fault-study and prefetch-study recompute most of their
#: work warm, so their warm pass would re-time the cold pass's code.
WARM_EXPERIMENTS = (
    "figure5",
    "tables1-8",
    "tables9-10",
    "figure9",
    "tables11-13",
    "ablations",
    "bus-width",
    "pipeline-validation",
)
#: Extra set-up-only interpreters timed for ``setup_s`` (the passes count too).
SETUP_PROBES = 1
#: Warm passes, each in a fresh process; ``warm_s`` is their median
#: (one pass takes only 3-6 s, so a single one is too noisy).
WARM_PASSES = 5
PASS_TIMEOUT_S = 170

LAYER_PREFIXES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))
#: Layer spans each workload must fire in its traced run.
EXPECTED_LAYERS = {
    "reproduce": LAYER_PREFIXES,
    # The worker builds the standard code (workloads.load), encodes and
    # decodes; the server loads and stores durable-cache answers.
    "service-mix": (
        "workloads.load",
        "compression.encode",
        "compression.decode",
        "core.artifacts_load",
        "core.artifacts_store",
    ),
}
#: Per-layer metrics a workload does not produce (printed as 0): the
#: other workload's own groups.
NOT_PRODUCED = {"reproduce": "service.", "service-mix": "experiments."}
#: Largest share of a traced run's wall that may be root self time.
MAX_UNATTRIBUTED = 0.05


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_state() -> dict:
    """Steal ticks and load average now (recorded, never a metric)."""
    with open("/proc/stat") as handle:
        cpu = handle.readline().split()
    with open("/proc/loadavg") as handle:
        load = handle.read().split()[:3]
    return {"steal_ticks": int(cpu[8]), "loadavg": [float(value) for value in load]}


class Context:
    """Per-run state: arguments, workspace, and result assembly."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.spec = load_spec()
        self.workspace = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
        self.record: dict = {}
        self.passes = 0

    def prepare(self) -> None:
        """Create the workspace; passes get its ``tmp`` as ``TMPDIR``."""
        (self.workspace / "tmp").mkdir(parents=True, exist_ok=True)

    def cleanup(self) -> None:
        """Delete the workspace, and ``.perfbench/`` once it is empty."""
        shutil.rmtree(self.workspace, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workspace.parent.rmdir()

    def program_env(self) -> dict:
        env = {key: value for key, value in os.environ.items() if not key.startswith("CCRP_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.workspace / "tmp")
        return env

    def spawn_pass(self, spec: dict, cache_dir: Path) -> dict:
        """Run one :mod:`program` pass in a fresh interpreter and read its result."""
        self.passes += 1
        tag = f"{self.passes}-{spec['kind']}-{spec['label']}"
        spec = dict(spec, result_path=str(self.workspace / f"{tag}.json"))
        spec_path = self.workspace / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(self.program_env(), CCRP_CACHE_DIR=str(cache_dir))
        log = self.workspace / f"{tag}.log"
        started = time.perf_counter()
        with log.open("wb") as stderr:
            code = subprocess.run(
                [sys.executable, str(HERE / "program.py"), str(spec_path)],
                env=env,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                timeout=PASS_TIMEOUT_S,
            ).returncode
        if code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{tag} exited with {code}:\n{tail}")
        result = json.loads(Path(spec["result_path"]).read_text())
        result["setup_s"] = result["ready_at"] - started
        return result

    def probe_setups(self) -> list[float]:
        return [
            self.spawn_pass({"kind": "probe", "label": i}, self.workspace / f"probe{i}")["setup_s"]
            for i in range(SETUP_PROBES)
        ]

    # -- results ------------------------------------------------------

    def failed_gate(self, problems: list[str], attempted: int = 1, failed: int = 1) -> dict:
        self.record["problems"] = problems[:50]
        return {
            "correct": False,
            "attempted": attempted,
            "failed": max(failed, 1),
            "metrics": {},
        }

    def result(
        self, attempted: int, failed: int, e2e: dict, layers: dict, record: dict
    ) -> dict:
        """Attach units; ``ok_rate`` is the share of attempted ops that succeeded."""
        self.record.update(record)
        if self.trace:
            wanted = self.spec["per_layer"]
            values = dict(layers)
            for metric in wanted:
                if metric["name"].startswith(NOT_PRODUCED[self.workload]):
                    values.setdefault(metric["name"], 0)
            problems = self.trace_problems(layers)
            if problems:
                return self.failed_gate(problems, attempted, failed)
        else:
            wanted = self.spec["end_to_end"]
            values = dict(e2e, ok_rate=(attempted - failed) / attempted)
        names = {metric["name"] for metric in wanted}
        unknown = set(values) - names
        missing = names - set(values)
        if unknown or missing:
            raise ValueError(f"metrics not in BENCHMARK.json: {unknown}; missing: {missing}")
        metrics = {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        }
        return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}

    def trace_problems(self, layers: dict) -> list[str]:
        calls = self.record["layer_calls"]
        problems = [
            f"wrapper {name} never fired"
            for name in EXPECTED_LAYERS[self.workload]
            if not calls[name]
        ]
        share = layers["unattributed_s"] / self.record["traced_wall_s"]
        if share > MAX_UNATTRIBUTED:
            problems.append(f"root self time is {share:.1%} of the traced wall")
        return problems

    def trace_layers(self, trees: list[dict], server_trees: list[dict] = ()) -> dict:
        """Per-layer metrics from span dumps.

        ``trees`` come from the measured processes; their parentless
        spans are roots, whose self time is ``unattributed_s``.
        ``server_trees`` add layer time recorded inside ``ccrp-serve``
        and its workers.
        """
        values: dict[str, float] = {f"{name}_s": 0.0 for name in LAYER_PREFIXES}
        calls = dict.fromkeys(LAYER_PREFIXES, 0)
        values.update(
            {"machine.instructions": 0, "core.artifacts_hits": 0, "core.artifacts_misses": 0}
        )
        spans = roots_wall = roots_self = 0.0
        for tree, is_program in [(t, True) for t in trees] + [(t, False) for t in server_trees]:
            tracer = Tracer()
            tracer.spans, tracer.counts = tree["spans"], tree["counts"]
            spans += len(tracer.spans)
            for name, amount in tracer.counts.items():
                values[name] += amount
            for name, entry in tracer.totals_by_name().items():
                if name in LAYER_PREFIXES:
                    values[f"{name}_s"] += entry["self_s"]
                    calls[name] += entry["calls"]
                elif name.startswith("experiments."):
                    values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + entry["total_s"]
            if is_program:
                for self_time, (_, parent, start, end) in zip(
                    tracer.self_times(), tracer.spans
                ):
                    if parent is None:
                        roots_wall += end - start
                        roots_self += self_time
        values["compression.decode_calls"] = calls["compression.decode"]
        values["unattributed_s"] = roots_self
        self.record["layer_calls"] = calls
        self.record["traced_wall_s"] = roots_wall
        values["tracing.spans"] = int(spans)
        values["tracing_overhead_frac"] = self.overhead_s(spans, calls, values) / roots_wall
        return values

    @staticmethod
    def overhead_s(spans: float, calls: dict, values: dict) -> float:
        """Host time the wrappers add, from per-kind calibrated costs.

        Every span pays one span wrapper; each ``Machine.run`` call also
        counts its instructions; each artifact-cache lookup pays the
        ``get_or_compute`` wrapper (an upper bound for the cheaper
        ``ResponseCache.get`` one).
        """
        cost = wrapper_costs()
        lookups = values["core.artifacts_hits"] + values["core.artifacts_misses"]
        return (
            spans * cost["span"]
            + calls["machine.run"] * cost["count"]
            + lookups * cost["get_or_compute"]
        )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def reproduce(ctx: Context) -> dict:
    """The thirteen experiments on an empty cache, then the cache-served ones warm."""
    setups = ctx.probe_setups()
    cache = ctx.workspace / "cache"
    passes = []
    for index, names in enumerate([EXPERIMENTS] + [WARM_EXPERIMENTS] * WARM_PASSES):
        passes.append(
            ctx.spawn_pass(
                {
                    "kind": "reproduce",
                    "label": "warm" if index else "cold",
                    "experiments": list(names),
                    "output_dir": str(ctx.workspace / f"out{index}"),
                    "trace": ctx.trace,
                },
                cache,
            )
        )
        setups.append(passes[-1]["setup_s"])
    cold, warm = passes[0], passes[1:]
    problems = [error for done in passes for error in done["errors"]]
    for index in range(1, len(passes)):
        problems += gates.reproduce_gate(
            ROOT / "results",
            ctx.workspace / "out0",
            ctx.workspace / f"out{index}",
            list(EXPERIMENTS),
            list(WARM_EXPERIMENTS),
        )
    attempted = sum(done["attempted"] for done in passes)
    failed = sum(done["failed"] for done in passes)
    if problems:
        return ctx.failed_gate(sorted(set(problems)), attempted, failed)
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(done["peak_rss_kb"] for done in passes) / 1024.0,
        "cold_s": cold["wall_s"],
        "warm_s": statistics.median(done["wall_s"] for done in warm),
    }
    record = {
        "setup_samples_s": setups,
        "warm_samples_s": [done["wall_s"] for done in warm],
        "experiment_s": {
            "cold": dict(zip(EXPERIMENTS, _seconds(cold))),
            "warm": dict(zip(WARM_EXPERIMENTS, _seconds(warm[0]))),
        },
    }
    layers = ctx.trace_layers([done["trace"] for done in passes]) if ctx.trace else {}
    return ctx.result(attempted, failed, e2e, layers, record)


def _seconds(done: dict) -> list[float]:
    return [round(ms / 1000.0, 3) for ms in done["latencies_ms"]]


def service_mix(ctx: Context) -> dict:
    import service_mix as workload

    return workload.run(ctx)


WORKLOADS = {
    "reproduce": reproduce,
    "service-mix": service_mix,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="fast harness self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "results").is_dir():
        print(f"perfbench: no program under {ROOT} (need src/repro and results/)", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    for key in [key for key in os.environ if key.startswith("CCRP_")]:
        del os.environ[key]
    ctx.prepare()
    os.environ["CCRP_CACHE_DIR"] = str(ctx.workspace / "inputs-cache")
    before = host_state()
    try:
        result = WORKLOADS[args.workload](ctx)
    finally:
        ctx.cleanup()
    ctx.record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": {
                "before": before,
                "after": host_state(),
                "affinity": sorted(os.sched_getaffinity(0)),
                "nproc": os.cpu_count(),
            },
        }
    )
    print(json.dumps({"record": ctx.record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
