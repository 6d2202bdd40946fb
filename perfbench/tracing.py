"""Span recording for the traced benchmark run.

Spans are recorded from outside the program: :func:`install` replaces
public functions of the ``repro`` package with wrappers that open a span
around each call.  Every wrapper is installed on the module or class
that defines the function and on every loaded ``repro`` module that
imported the name, so ``from repro.compression.multicode import
train_code_set`` call sites are covered too.

A span is ``[name, parent, start, end]`` in memory; nothing is written
until the run ends.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager

#: Layer wrappers: (span name, defining module, attribute).  An
#: attribute ``Class.method`` patches the class; a plain name patches
#: the module and every importer of it.  Span names are metric prefixes:
#: ``compression.lzw`` spans feed ``compression.lzw_s``.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("workloads.load", "repro.workloads.suite", "load"),
    ("isa.assemble", "repro.isa.assembler", "Assembler.assemble"),
    ("machine.run", "repro.machine.executor", "Machine.run"),
    ("cache.simulate_trace", "repro.cache.direct_mapped", "simulate_trace"),
    (
        "cache.simulate_trace",
        "repro.cache.set_associative",
        "simulate_trace_associative",
    ),
    ("ccrp.clb_curve", "repro.ccrp.stackdist", "lru_miss_curve"),
    ("ccrp.refill", "repro.ccrp.refill", "RefillEngine.__init__"),
    ("ccrp.refill", "repro.ccrp.refill", "RefillEngine.ccrp_miss_cycles"),
    ("ccrp.refill", "repro.ccrp.refill", "RefillEngine.ccrp_line_cycles"),
    ("ccrp.refill", "repro.ccrp.refill", "RefillEngine.ccrp_fetched_bytes"),
    ("pipeline.replay", "repro.pipeline.timeline", "replay_trace"),
    ("pipeline.replay", "repro.pipeline.timeline", "BlockTable.__init__"),
    ("prefetch.fetch_stream", "repro.prefetch.timeline", "simulate_fetch_stream"),
    ("compression.multicode_train", "repro.compression.multicode", "train_code_set"),
    ("compression.lzw", "repro.compression.lzw", "lzw_compress"),
    ("compression.lzw", "repro.compression.lzw", "lzw_decompress"),
    ("compression.lzw", "repro.compression.lzw", "lzw_compressed_size"),
    ("compression.encode", "repro.ccrp.compressor", "ProgramCompressor.compress"),
    ("compression.decode", "repro.compression.huffman", "HuffmanCode.decode"),
    ("compression.decode", "repro.compression.huffman", "HuffmanCode.decode_fast"),
    ("compression.decode", "repro.compression.huffman", "HuffmanCode.decode_lines"),
    ("faults.blast", "repro.faults.checker", "blast_block_codec"),
    ("faults.blast", "repro.faults.checker", "blast_baseline"),
    ("faults.blast", "repro.faults.checker", "blast_lzw"),
    ("faults.refill_survey", "repro.faults.checker", "refill_survey"),
    ("core.study_build", "repro.core.study", "ProgramStudy.__init__"),
    ("core.study_metrics", "repro.core.study", "ProgramStudy.metrics"),
    ("core.artifacts_load", "repro.core.artifacts", "ArtifactCache.load"),
    ("core.artifacts_store", "repro.core.artifacts", "ArtifactCache.store"),
    ("experiments.render", "repro.experiments.export", "result_to_dict"),
    ("experiments.render", "repro.experiments.export", "export_payload"),
)

#: Experiment modules whose result classes define ``render``.
RENDER_MODULES = (
    "ablations",
    "bus_width",
    "cross_isa",
    "dense_isa",
    "extensions",
    "fault_study",
    "figure5",
    "figure9",
    "pipeline_validation",
    "prefetch_study",
    "tables11_13",
    "tables1_8",
    "tables9_10",
)


class Tracer:
    """In-memory span and counter store; thread-safe span creation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> int:
        """Open a span under ``parent`` (default: this thread's open span)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        index = self.begin(name, parent)
        try:
            yield index
        finally:
            self.end(index)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def innermost(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    # -- analysis -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's union."""
        children: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span[1] is not None:
                children.setdefault(span[1], []).append(index)
        result = []
        for index, (_, _, start, end) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child in sorted(children.get(index, ()), key=lambda c: self.spans[c][2]):
                child_start, child_end = self.spans[child][2], self.spans[child][3]
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            result.append((end - start) - covered)
        return result

    def totals_by_name(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s"}}`` over all spans.

        ``total_s`` counts each name's outermost spans only, so nested
        calls of one layer are not counted twice.
        """
        out: dict[str, dict[str, float]] = {}
        for index, self_time in enumerate(self.self_times()):
            name, parent, start, end = self.spans[index]
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_time
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                entry["total_s"] += end - start
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _span_wrapper(tracer: Tracer, func, name: str):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        # A recursive or delegating call of the same layer stays inside
        # the outer span rather than opening one per level.
        if tracer.innermost() == name:
            return func(*args, **kwargs)
        index = tracer.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.end(index)

    return traced


def _run_wrapper(tracer: Tracer, func, name: str):
    """``Machine.run``: also count the simulated instructions."""
    span = _span_wrapper(tracer, func, name)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        result = span(*args, **kwargs)
        tracer.count("machine.instructions", result.instructions_executed)
        return result

    return traced


def _get_or_compute_wrapper(tracer: Tracer, func):
    """Count artifact-cache hits and misses by whether ``compute`` ran."""

    @functools.wraps(func)
    def counted(self, kind, compute, *key_parts):
        ran = []

        def tracked():
            ran.append(True)
            return compute()

        value = func(self, kind, tracked, *key_parts)
        tracer.count("core.artifacts_misses" if ran else "core.artifacts_hits")
        return value

    return counted


def _response_get_wrapper(tracer: Tracer, func):
    """The service's durable cache: a ``None`` answer is a miss."""

    @functools.wraps(func)
    def counted(self, key_parts):
        value = func(self, key_parts)
        tracer.count("core.artifacts_misses" if value is None else "core.artifacts_hits")
        return value

    return counted


def _patch(module_name: str, attribute: str, make) -> None:
    """Replace ``module.attribute`` (or a class method) with ``make(original)``."""
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        owner = getattr(module, class_name)
        setattr(owner, method, make(owner.__dict__[method]))
        return
    original = getattr(module, attribute)
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            loaded.__dict__.get(attribute) is original
        ):
            setattr(loaded, attribute, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer function listed in :data:`LAYERS`.

    Import the modules whose call sites should be covered first: a
    module imported later picks the wrapper up from its defining module.
    """
    for name, module_name, attribute in LAYERS:
        if attribute == "Machine.run":
            _patch(module_name, attribute, lambda f, n=name: _run_wrapper(tracer, f, n))
        else:
            _patch(module_name, attribute, lambda f, n=name: _span_wrapper(tracer, f, n))
    _patch(
        "repro.core.artifacts",
        "ArtifactCache.get_or_compute",
        lambda f: _get_or_compute_wrapper(tracer, f),
    )
    _patch(
        "repro.core.artifacts",
        "ResponseCache.get",
        lambda f: _response_get_wrapper(tracer, f),
    )
    for module_name in RENDER_MODULES:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "render" in value.__dict__
            ):
                value.render = _span_wrapper(tracer, value.__dict__["render"], "experiments.render")


def _extra_cost(wrapped, bare, args: tuple, rounds: int) -> float:
    """Median over batches of (wrapped call) minus (bare call), seconds."""
    samples = []
    for _ in range(7):
        started = time.perf_counter()
        for _ in range(rounds):
            wrapped(*args)
        traced = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(rounds):
            bare(*args)
        plain = time.perf_counter() - started
        samples.append((traced - plain) / rounds)
    samples.sort()
    return max(samples[len(samples) // 2], 0.0)


def wrapper_costs(rounds: int = 20000) -> dict[str, float]:
    """Extra host time per call of each wrapper kind, measured here.

    ``span``: a span wrapper; ``count``: one counter update (what the
    ``Machine.run`` wrapper adds to its span); ``get_or_compute``: the
    artifact-cache lookup wrapper.  Each wraps a no-op.
    """
    tracer = Tracer()

    def bare(*_):
        return None

    def counting(*_):
        tracer.count("calibration")

    def lookup(self, kind, compute, *key_parts):
        return compute()

    costs = {
        "span": _extra_cost(_span_wrapper(tracer, bare, "calibration"), bare, (), rounds),
        "count": _extra_cost(counting, bare, (), rounds),
        "get_or_compute": _extra_cost(
            _get_or_compute_wrapper(tracer, lookup), lookup, (None, "k", bare, 1), rounds
        ),
    }
    tracer.spans.clear()
    return costs
