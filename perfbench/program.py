"""One pass of the program, run in a fresh interpreter.

Usage: ``python3 perfbench/program.py SPEC.json`` with ``PYTHONPATH`` and
``CCRP_CACHE_DIR`` set by :mod:`run`.  The spec names the pass:

* ``reproduce`` — call ``repro.experiments.runner.main`` once per
  experiment, each call timed from outside;
* ``probe`` — set up exactly like a ``reproduce`` pass, then exit (a
  set-up time sample).

The pass writes its measurements to ``spec["result_path"]``: the
``perf_counter`` instant set-up finished (the clock is system-wide, so
the parent can subtract its spawn instant), per-operation latencies,
outputs for the correctness gates, peak RSS and, when traced, spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import RENDER_MODULES, Tracer, install  # noqa: E402


def peak_rss_kb(pid: int | str = "self") -> int:
    """``VmHWM`` (peak resident set) of one process, in kB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _reproduce(spec: dict, tracer: Tracer | None, out: dict) -> None:
    from repro.experiments import runner

    output_dir = Path(spec["output_dir"])
    for name in spec["experiments"]:
        label = f"experiments.{name}.{spec['label']}"
        span = tracer.span(label) if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = runner.main([name, "--output-dir", str(output_dir)])
            ok = code == 0
        except Exception as error:  # one failed experiment is one failed op
            out["errors"].append(f"{name}: {error!r}")
            ok = False
        out["latencies_ms"].append((time.perf_counter() - started) * 1000.0)
        out["attempted"] += 1
        out["failed"] += 0 if ok else 1


def _import_program() -> None:
    """Import what the pass calls, so set-up time covers the imports."""
    import importlib

    importlib.import_module("repro.experiments.runner")
    for module in RENDER_MODULES:
        importlib.import_module(f"repro.experiments.{module}")
    importlib.import_module("repro.core.study")
    importlib.import_module("repro.workloads.suite")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    Path(os.environ["CCRP_CACHE_DIR"]).mkdir(parents=True, exist_ok=True)
    _import_program()
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        install(tracer)
    out = {
        "ready_at": time.perf_counter(),
        "latencies_ms": [],
        "attempted": 0,
        "failed": 0,
        "errors": [],
    }
    if spec["kind"] != "probe":
        root = tracer.begin("run") if tracer else None
        started = time.perf_counter()
        _reproduce(spec, tracer, out)
        out["wall_s"] = time.perf_counter() - started
        if tracer:
            tracer.end(root)
            out["trace"] = tracer.dump()
    out["peak_rss_kb"] = peak_rss_kb()
    Path(spec["result_path"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
