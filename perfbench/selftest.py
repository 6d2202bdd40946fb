"""Fast self-test of the benchmark harness: ``python3 perfbench/run.py --self-test``.

Runs in seconds at tiny sizes.  It checks that each correctness gate
fires on a corrupted expected output and stays quiet on a good one,
that results carry exactly the metric names and units of
``BENCHMARK.json``, that ``ok_rate`` counts a forced failure, that the
seeded inputs repeat and are equal-sized across seeds, and that trace
spans nest and their self times sum to the root's wall time.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

import gates
import inputs
import run
import tracing


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_reproduce_gate(scratch: Path) -> None:
    results = scratch / "results"
    cold, warm = scratch / "cold", scratch / "warm"
    results.mkdir()
    cold.mkdir()
    warm.mkdir()
    for path in sorted((run.ROOT / "results").iterdir())[:2]:
        shutil.copy(path, results / path.name)
        shutil.copy(path, cold / path.name)
        shutil.copy(path, warm / path.name)
    names = sorted({path.stem for path in results.iterdir()})
    check(not gates.reproduce_gate(results, cold, warm, names, names), "good outputs flagged")
    victim = sorted(results.iterdir())[0]
    victim.write_bytes(victim.read_bytes() + b" ")
    check(gates.reproduce_gate(results, cold, warm, names, names), "corrupt results/ passed")
    shutil.copy(cold / victim.name, victim)
    (warm / victim.name).write_bytes(b"{}\n")
    check(gates.reproduce_gate(results, cold, warm, names, names), "warm != cold passed")


def test_service_gates() -> None:
    data = bytes(range(256)) * 5
    meta, blob = gates.direct_compress(data)
    check(not gates.compress_gate(data, meta, blob), "direct output flagged")
    corrupt = bytes([blob[0] ^ 1]) + blob[1:]
    check(gates.compress_gate(data, meta, corrupt), "corrupt blob passed")
    check(gates.compress_gate(data, dict(meta, original_size=1), blob), "bad meta passed")
    check(not gates.round_trip_gate(data, data), "good round trip flagged")
    check(gates.round_trip_gate(data, data[:-1] + b"\0"), "bad round trip passed")


def test_result_shape() -> None:
    spec = run.load_spec()
    ctx = run.Context("reproduce", 7, 45, False)
    e2e = {m["name"]: 1.5 for m in spec["end_to_end"] if m["name"] != "ok_rate"}
    result = ctx.result(10, 1, e2e, {}, {})
    check(result["failed"] == 1 and result["attempted"] == 10, "counts lost")
    check(result["metrics"]["ok_rate"]["value"] == 0.9, "ok_rate ignores a forced failure")
    check(
        {name: m["unit"] for name, m in result["metrics"].items()}
        == {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "end-to-end names or units differ from BENCHMARK.json",
    )
    try:
        ctx.result(1, 0, dict(e2e, bogus=1.0), {}, {})
    except ValueError:
        pass
    else:
        raise AssertionError("an unlisted metric was printed")
    failed = ctx.failed_gate(["x"])
    check(not failed["correct"] and not failed["metrics"], "a failed gate printed metrics")

    layer_names = {m["name"] for m in spec["per_layer"]}
    produced = {f"{name}_s" for name in run.LAYER_PREFIXES}
    produced |= {f"experiments.{name}.cold_s" for name in run.EXPERIMENTS}
    produced |= {f"experiments.{name}.warm_s" for name in run.WARM_EXPERIMENTS}
    check(produced <= layer_names, f"per-layer metrics missing: {produced - layer_names}")

    traced = run.Context("reproduce", 7, 45, True)
    traced.record.update(layer_calls=dict.fromkeys(run.LAYER_PREFIXES, 1), traced_wall_s=1.0)
    layers = {name: 0.01 for name in layer_names if not name.startswith("service.")}
    result = traced.result(1, 0, {}, layers, {})
    check(result["metrics"]["service.server_ms"]["value"] == 0, "unproduced metric not 0")
    check(set(result["metrics"]) == layer_names, "per-layer names differ from BENCHMARK.json")
    del layers["machine.run_s"]
    try:
        traced.result(1, 0, {}, layers, {})
    except ValueError:
        pass
    else:
        raise AssertionError("a per-layer metric the workload produces went missing unnoticed")


def test_inputs() -> None:
    texts = {"t": bytes(range(256)) * 200}
    plans, gate = inputs.service_plan(5, texts, 2, 30, 20, 10, 3)
    again, _ = inputs.service_plan(5, texts, 2, 30, 20, 10, 3)
    check(plans == again, "same seed, different requests")
    for plan in plans:
        kinds = [kind for kind, _ in plan]
        check(
            (kinds.count("compress"), kinds.count("decompress"), kinds.count("repeat"))
            == (30, 20, 10),
            "request mix is not equal-sized",
        )
        expanded = [arg for kind, arg in plan if kind == "decompress"]
        check(len(expanded) == len(set(expanded)), "a blob is decompressed twice")
        for i, (kind, arg) in enumerate(plan):
            if kind != "compress":
                check(arg < i and plan[arg][0] == "compress", "a request refers forward")
    slices = [arg for plan in plans for kind, arg in plan if kind == "compress"] + gate
    check(len(slices) == len(set(slices)), "slices are not distinct")
    other, _ = inputs.service_plan(6, texts, 2, 30, 20, 10, 3)
    check(
        [sorted(len(a) for k, a in p if k == "compress") for p in plans]
        == [sorted(len(a) for k, a in p if k == "compress") for p in other],
        "bytes sent differ across seeds",
    )


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_spans() -> None:
    tracer = tracing.Tracer()
    inner = tracing._span_wrapper(tracer, lambda: _busy(0.01), "layer.inner")

    def outer_body():
        _busy(0.005)
        inner()
        inner()

    outer = tracing._span_wrapper(tracer, outer_body, "layer.outer")
    recursive_calls = []

    def recurse(depth):
        recursive_calls.append(depth)
        if depth:
            wrapped_recurse(depth - 1)

    wrapped_recurse = tracing._span_wrapper(tracer, recurse, "layer.recursive")
    def conn():
        with tracer.span("layer.conn", parent=root):
            _busy(0.02)

    with tracer.span("run") as root:
        outer()
        wrapped_recurse(3)
        concurrent = [threading.Thread(target=conn) for _ in range(2)]
        for thread in concurrent:
            thread.start()
        for thread in concurrent:
            thread.join()
    names = [span[0] for span in tracer.spans]
    check(names.count("layer.recursive") == 1 and len(recursive_calls) == 4, "recursion opened spans")
    by_index = {i: span for i, span in enumerate(tracer.spans)}
    for index, (name, parent, start, end) in by_index.items():
        check(end >= start, f"{name} ends before it starts")
        if parent is not None:
            p_start, p_end = by_index[parent][2], by_index[parent][3]
            check(p_start <= start and end <= p_end, f"{name} is not nested in its parent")
    inner_parents = {by_index[i][1] for i in by_index if by_index[i][0] == "layer.inner"}
    check(inner_parents == {names.index("layer.outer")}, "inner spans lost their parent")
    totals = tracer.totals_by_name()
    root_span = tracer.spans[root]
    root_wall = root_span[3] - root_span[2]
    # Concurrent children overlap, so self times sum to the root's wall
    # only after removing the overlap of the two connection spans.
    conns = [s for s in tracer.spans if s[0] == "layer.conn"]
    overlap = max(0.0, min(c[3] for c in conns) - max(c[2] for c in conns))
    summed = sum(entry["self_s"] for entry in totals.values())
    check(abs(summed - overlap - root_wall) < 1e-6, "self times do not sum to the root wall")
    check(totals["layer.inner"]["calls"] == 2, "inner call count")
    check(totals["layer.outer"]["self_s"] < totals["layer.outer"]["total_s"], "outer self time")


def test_wrappers_install() -> None:
    import repro.compression as compression
    from repro.compression import lzw

    original = lzw.lzw_compress
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        check(compression.lzw_compress is lzw.lzw_compress, "importer not patched")
        compression.lzw_compress(b"abcabcabc")
        check([s[0] for s in tracer.spans] == ["compression.lzw"], "wrapper did not fire")
    finally:
        for module in (lzw, compression):
            module.lzw_compress = original


TESTS = (
    test_reproduce_gate,
    test_service_gates,
    test_result_shape,
    test_inputs,
    test_spans,
    test_wrappers_install,
)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-selftest-") as scratch:
        os.environ["CCRP_CACHE_DIR"] = str(Path(scratch) / "cache")
        for test in TESTS:
            started = time.perf_counter()
            if test is test_reproduce_gate:
                test(Path(scratch))
            else:
                test()
            print(f"ok  {test.__name__}  ({time.perf_counter() - started:.2f}s)")
    print(f"{len(TESTS)} self-tests passed")
    return 0
