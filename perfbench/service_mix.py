"""The ``service-mix`` workload: ``ccrp-serve`` driven by one client process.

One server with one worker and a fresh ``CCRP_CACHE_DIR``; two client
connections (threads of this process, one per CPU) each run a closed
loop over their own seeded request list.  There are three passes, each
with its own request lists: run once cold, finding the durable response
cache empty of its requests, then replayed five times warm, when the
durable response cache answers every request.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import gates
from tracing import Tracer

HERE = Path(__file__).resolve().parent

#: Requests per connection and pass: unique compress, decompress, exact repeats.
UNIQUE, DECOMPRESS, REPEAT = 300, 200, 100
CONNECTIONS = 2
#: Cold passes, each over fresh request lists; ``cold_s`` is their median.
COLD_PASSES = 3
#: Extra server start-ups timed for ``setup_s`` (the measured one counts too).
SETUP_PROBES = 2
GATE_SLICES = 12
#: Not a slice of any plan, so it leaves the timed requests cold.
WARM_UP_PAYLOAD = bytes(range(256)) * 16
#: Warm replays of each pass's request lists; ``warm_s`` is their median.
WARM_REPLAYS = 5
#: Seconds a stopping server (then its workers) may take before being killed.
STOP_GRACE_S = 5
#: Timed ``compress`` answers re-checked against direct compression.
SAMPLE_CHECKS = 24
CLASS_OF = {"compress": "compress_miss", "repeat": "compress_hit", "decompress": "decompress"}


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (scans ``/proc``)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


class Server:
    """One ``ccrp-serve`` subprocess with a given cache directory."""

    def __init__(self, workspace: Path, cache_dir: Path, env: dict, trace_out: Path | None):
        self.socket = os.path.relpath(workspace / "ccrp.sock")
        self.address = f"unix:{self.socket}"
        self.cache_dir = cache_dir
        self.env = dict(env, CCRP_CACHE_DIR=str(cache_dir))
        self.trace_out = trace_out
        self.log = workspace / "serve.log"
        self.proc: subprocess.Popen | None = None
        self.setup_s = 0.0
        self.forced = False

    def start(self) -> None:
        from repro.service.client import ServiceClient

        started = time.perf_counter()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "serve.py"), self.address, "--workers", "1"]
        if self.trace_out is not None:
            argv += ["--trace-out", str(self.trace_out)]
        with self.log.open("ab") as log:
            self.proc = subprocess.Popen(
                argv, env=self.env, stdout=subprocess.PIPE, stderr=log
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else b""
        if b"listening" not in line:
            self.stop()
            raise RuntimeError(f"ccrp-serve did not start (see {self.log})")
        with ServiceClient(self.address, timeout=30) as client:
            client.ping()
        self.setup_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its workers, MB."""
        from program import peak_rss_kb

        pids = [self.proc.pid] + descendants(self.proc.pid)
        return sum(peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait for the server and its workers.

        An idle server exits in about 0.1 s.  One that has not exited
        after ``STOP_GRACE_S`` is killed, and so are its workers, so a
        rare hung shutdown costs seconds, not the run; ``forced`` says so.
        """
        if self.proc is None:
            return
        children = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.forced = True
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + (0 if self.forced else STOP_GRACE_S)
        for pid in children:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.02)
            if os.path.exists(f"/proc/{pid}"):
                self.forced = True
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        self.proc = None
        Path(self.socket).unlink(missing_ok=True)


def _client_class():
    from repro.service.client import ServiceClient

    class CountingClient(ServiceClient):
        """A resilient client that counts its retries."""

        retried = 0

        def _backoff(self, attempt, budget):
            self.retried += 1
            super()._backoff(attempt, budget)

    return CountingClient


def drive(address: str, plans, seed: int, tracer: Tracer | None, root: int | None):
    """Run every connection's closed loop; returns (wall_s, per-connection logs).

    A log entry is ``(kind, latency_ms, answer)`` with ``answer`` None
    for a failed request; ``answer`` is ``(meta, blob)`` for compress
    and repeat, the returned bytes for decompress.
    """
    from repro.errors import ServiceError

    client_class = _client_class()
    logs: list[list] = [[] for _ in plans]
    retries = [0] * len(plans)

    def loop(index: int) -> None:
        if tracer:
            connection = tracer.begin(f"service.connection{index}", parent=root)
        plan, log = plans[index], logs[index]
        with client_class(
            address, timeout=60, name=f"bench{index}", retries=2, backoff_seed=seed
        ) as client:
            for kind, argument in plan:
                span = tracer.begin(f"service.{CLASS_OF[kind]}") if tracer else None
                started = time.perf_counter()
                try:
                    if kind == "compress":
                        answer = client.compress(argument)
                    elif kind == "repeat":
                        answer = client.compress(plan[argument][1])
                    else:
                        target = log[argument][2]
                        if target is None:
                            raise ServiceError("its compress failed", code="skipped")
                        answer = client.decompress(*target)
                except ServiceError:
                    answer = None
                log.append((kind, (time.perf_counter() - started) * 1000.0, answer))
                if span is not None:
                    tracer.end(span)
            retries[index] = client.retried
        if tracer:
            tracer.end(connection)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(plans))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return wall, logs, sum(retries)


def verify(plans, logs, reference=None) -> tuple[int, list[str]]:
    """Failed-op count and problems: wrong bytes, or answers unlike ``reference``."""
    failed, problems = 0, []
    for c, (plan, log) in enumerate(zip(plans, logs)):
        if len(log) != len(plan):
            problems.append(f"connection {c}: {len(log)} answers for {len(plan)} requests")
            continue
        for i, ((kind, argument), (_, _, answer)) in enumerate(zip(plan, log)):
            if answer is None:
                failed += 1
                continue
            wrong = []
            if kind == "decompress":
                wrong = gates.round_trip_gate(plan[argument][1], answer)
            elif kind == "repeat" and log[argument][2] is not None:
                if answer != log[argument][2]:
                    wrong = ["repeat answered differently from the original"]
            if reference is not None and answer != reference[c][i][2]:
                wrong.append("warm answer differs from cold")
            if wrong:
                failed += 1
                problems.extend(f"connection {c} request {i}: {p}" for p in wrong)
    return failed, problems


def _server_ms_total(before: dict, after: dict) -> float:
    """Server-observed latency summed over compress/decompress, ms."""
    total = 0.0
    for op in ("compress", "decompress"):
        new = after["observations"].get(f"latency.{op}", {"count": 0, "mean": 0.0})
        old = before["observations"].get(f"latency.{op}", {"count": 0, "mean": 0.0})
        total += new["count"] * new["mean"] - old["count"] * old["mean"]
    return total


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _inputs_while_warming(ctx, address: str):
    """Generate the inputs while the server's worker runs its lazy set-up.

    A fresh worker's first ``compress`` builds the standard code from
    the Figure 5 corpus (seconds); so does the direct reference here, on
    the other CPU.  Neither belongs in a timed request.
    """
    import inputs
    from repro.service.client import ServiceClient
    from repro.workloads import suite

    def warm_up() -> None:
        with ServiceClient(address, timeout=120) as client:
            client.compress(WARM_UP_PAYLOAD)

    with ThreadPoolExecutor(1) as pool:
        warming = pool.submit(warm_up)
        texts = {name: suite.load(name).text for name in inputs.SERVICE_TEXTS}
        lists, gate_slices = inputs.service_plan(
            ctx.seed, texts, CONNECTIONS * COLD_PASSES, UNIQUE, DECOMPRESS, REPEAT, GATE_SLICES
        )
        gates.direct_compress(gate_slices[0])
        warming.result()
    passes = [lists[i : i + CONNECTIONS] for i in range(0, len(lists), CONNECTIONS)]
    return passes, gate_slices


def _gate(address: str, slices: list[bytes]) -> list[str]:
    """Pre-timing gate: compress and round-trip slices on the measured server."""
    from repro.service.client import ServiceClient

    problems = []
    with ServiceClient(address, timeout=60) as client:
        for data in slices:
            meta, blob = client.compress(data)
            problems += gates.compress_gate(data, meta, blob)
            problems += gates.round_trip_gate(data, client.decompress(meta, blob))
    return problems


def run(ctx) -> dict:
    """The whole workload; ``ctx`` is the :class:`run.Context`."""
    from repro.service.client import ServiceClient

    env = ctx.program_env()
    setups: list[float] = []
    servers = []
    for probe in range(SETUP_PROBES):
        server = Server(ctx.workspace, ctx.workspace / f"probe{probe}-cache", env, None)
        servers.append(server)
        try:
            server.start()
            setups.append(server.setup_s)
        finally:
            server.stop()

    cache_dir = ctx.workspace / "service-cache"
    trace_out = ctx.workspace / "server.json" if ctx.trace else None
    tracer = Tracer() if ctx.trace else None
    cold = {"walls": [], "logs": [], "stats": [], "retries": 0}
    warm = {"walls": [], "logs": []}
    server = Server(ctx.workspace, cache_dir, env, trace_out)
    servers.append(server)
    try:
        server.start()
        setups.append(server.setup_s)
        passes, gate_slices = _inputs_while_warming(ctx, server.address)
        problems = _gate(server.address, gate_slices)
        if problems:
            return ctx.failed_gate(problems)
        # Each pass runs cold, then is replayed warm, so cold and warm
        # samples are spread alike over the whole run.
        for plans in passes:
            with ServiceClient(server.address, timeout=60) as client:
                before = client.stats()
            for label in ["cold"] + ["warm"] * WARM_REPLAYS:
                root = tracer.begin(f"run.{label}") if tracer else None
                wall, logs, retries = drive(server.address, plans, ctx.seed, tracer, root)
                if tracer:
                    tracer.end(root)
                done = cold if label == "cold" else warm
                done["walls"].append(wall)
                done["logs"].append(logs)
                if label == "cold":
                    cold["retries"] += retries
                    with ServiceClient(server.address, timeout=60) as client:
                        cold["stats"].append((before, client.stats()))
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    trace_files = sorted(ctx.workspace.glob("server*.json")) if ctx.trace else []

    failed, problems = 0, []
    for plans, logs in zip(passes, cold["logs"]):
        failed_pass, wrong = verify(plans, logs)
        failed += failed_pass
        problems += wrong
    for index, logs in enumerate(warm["logs"]):
        which = index // WARM_REPLAYS
        failed_pass, wrong = verify(passes[which], logs, cold["logs"][which])
        failed += failed_pass
        problems += wrong
    sampled = [
        (data, log[i][2])
        for plans, logs in zip(passes, cold["logs"])
        for plan, log in zip(plans, logs)
        for i, (kind, data) in enumerate(plan)
        if kind == "compress" and log[i][2] is not None
    ]
    for data, (meta, blob) in ctx.rng.sample(sampled, min(SAMPLE_CHECKS, len(sampled))):
        problems += gates.compress_gate(data, meta, blob)
    per_pass = sum(len(plan) for plan in passes[0])
    attempted = (1 + WARM_REPLAYS) * COLD_PASSES * per_pass
    if problems:
        return ctx.failed_gate(problems, attempted, failed)

    latencies = [entry[1] for logs in cold["logs"] for log in logs for entry in log]
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "cold_s": statistics.median(cold["walls"]),
        "warm_s": statistics.median(warm["walls"]),
    }
    record = {
        "requests_per_pass": per_pass,
        "setup_samples_s": setups,
        "cold_samples_s": cold["walls"],
        "warm_samples_s": warm["walls"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": percentile(latencies, 0.99),
        "latency_samples": len(latencies),
        "forced_server_stops": sum(server.forced for server in servers),
    }
    layers = {}
    if ctx.trace:
        layers = _layers(ctx, cold, tracer, trace_files)
    return ctx.result(attempted, failed, e2e, layers, record)


def _worker_codec_ms(tracer: Tracer, worker_trees: list[dict]) -> float:
    """Worker encode + decode time inside the cold passes, ms.

    Span clocks are ``perf_counter`` (system-wide), so worker spans are
    placed by their start within the client's ``run.cold`` spans; the
    warm-up and gate requests before them do not count.
    """
    windows = [(start, end) for name, _, start, end in tracer.spans if name == "run.cold"]
    total = 0.0
    for tree in worker_trees:
        for name, parent, start, end in tree["spans"]:
            if (
                parent is None
                and name in ("compression.encode", "compression.decode")
                and any(low <= start <= high for low, high in windows)
            ):
                total += end - start
    return total * 1000.0


def _layers(ctx, cold, tracer: Tracer, trace_files: list[Path]) -> dict:
    """Per-layer service figures of the cold passes (traced run only).

    The per-request decomposition uses means so the parts add up:
    client = wire + server, server = queue/IPC + codec.
    """
    import json

    by_class: dict[str, list[float]] = {}
    for logs in cold["logs"]:
        for log in logs:
            for kind, latency, _ in log:
                by_class.setdefault(CLASS_OF[kind], []).append(latency)
    latencies = [latency for values in by_class.values() for latency in values]
    count = len(latencies)
    server_trees, worker_trees = [], []
    for path in trace_files:
        tree = json.loads(path.read_text())
        server_trees.append(tree)
        if ".worker-" in path.name:
            worker_trees.append(tree)
    client_mean = sum(latencies) / count
    server_mean = sum(_server_ms_total(*pair) for pair in cold["stats"]) / count
    codec_mean = _worker_codec_ms(tracer, worker_trees) / count

    def delta(name: str) -> int:
        return sum(_counter_delta(before, after, name) for before, after in cold["stats"])

    layers = {
        "service.compress_miss_ms": statistics.median(by_class["compress_miss"]),
        "service.compress_hit_ms": statistics.median(by_class["compress_hit"]),
        "service.decompress_ms": statistics.median(by_class["decompress"]),
        "service.latency_p50_ms": statistics.median(latencies),
        "service.latency_p99_ms": percentile(latencies, 0.99),
        "service.server_ms": server_mean,
        "service.wire_ms": client_mean - server_mean,
        "service.codec_ms": codec_mean,
        "service.queue_ipc_ms": server_mean - codec_mean,
        "service.cache.hit": delta("service.cache.hit"),
        "service.cache.miss": delta("service.cache.miss"),
        "service.cache.store": delta("service.cache.store"),
        "service.coalesced": delta("service.coalesced"),
        "service.batched_jobs": delta("service.batched_jobs"),
        "service.retries": cold["retries"],
    }
    ctx.record["worker_traces"] = len(worker_trees)
    layers.update(ctx.trace_layers([tracer.dump()], server_trees))
    return layers
