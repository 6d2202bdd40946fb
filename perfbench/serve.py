"""Start ``ccrp-serve``, optionally with layer spans recorded in the server.

Usage: ``python3 perfbench/serve.py ADDRESS [ccrp-serve options]
[--trace-out FILE]``.  Without ``--trace-out`` this is exactly
``repro.tools.serve.main``; with it, the layer wrappers of
:mod:`tracing` are installed first, the server's spans are written to
FILE after the server has shut down (on SIGINT), and each worker writes
its own spans to ``FILE`` with suffix ``.worker-PID.json`` when it exits.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _trace_workers(tracer, trace_out: Path) -> None:
    """Give every forked worker an empty span store, dumped at worker exit."""
    from repro.service import workers

    original = workers._worker_init

    def worker_init() -> None:
        original()
        # The fork copied the server's spans; the worker keeps its own.
        tracer.spans, tracer.counts = [], {}
        tracer._local = threading.local()
        path = trace_out.with_suffix(f".worker-{os.getpid()}.json")
        multiprocessing.util.Finalize(
            None, lambda: path.write_text(json.dumps(tracer.dump())), exitpriority=10
        )

    workers._worker_init = worker_init


def main(argv: list[str]) -> int:
    # The benchmark stops the server with SIGINT.  A background job of a
    # non-interactive shell inherits SIGINT ignored, and Python then
    # leaves it ignored, so restore the default before the server starts.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    trace_out = None
    if "--trace-out" in argv:
        at = argv.index("--trace-out")
        trace_out = Path(argv[at + 1])
        del argv[at : at + 2]
    from repro.tools import serve

    tracer = None
    if trace_out:
        import repro.service.server  # noqa: F401  (importers of the cache)
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        _trace_workers(tracer, trace_out)
    code = serve.main(argv)
    if tracer is not None:
        trace_out.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
