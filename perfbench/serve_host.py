"""Host process for the ``serve_zipf`` workload: one live ``KAQServer``.

Started by ``serve_zipf.py``, never by hand::

    python3 perfbench/serve_host.py --spans perfbench/out/spans.jsonl

Builds the standard suite's ``mixed_tenant`` point set, indexes it, and
serves it with the certified answer cache on and every other setting at
its default.  Once listening it prints one
line::

    PERFBENCH_LISTENING port=<port> build_s=<s> index_s=<s> start_s=<s>

Signals drive it from then on: ``SIGUSR1`` wraps the engine and serve
layers in spans (see ``spans.py``) and ``SIGUSR2`` unwraps them, each
acknowledged with a ``PERFBENCH_TRACE on|off`` line; ``SIGTERM``, or the
end of its standard input (the client exited), drains the server, writes
the spans to ``--spans`` and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import Recorder, install  # noqa: E402

FAMILY = "mixed_tenant"


def build():
    """The served workload (the suite's own ``mixed_tenant`` points);
    ``serve_zipf`` rebuilds the same points for its requests."""
    from repro.workloads import build_workload, standard_suite

    return build_workload(
        next(s for s in standard_suite(1.0) if s.family == FAMILY))


async def amain(args) -> None:
    from repro import obs
    from repro.cache import CacheConfig
    from repro.core import KernelAggregator
    from repro.serve import KAQServer, ServeConfig

    t0 = time.perf_counter()
    wl = build()
    t1 = time.perf_counter()
    tree = wl.tree()
    t2 = time.perf_counter()
    server = KAQServer(KernelAggregator(tree, wl.kernel),
                       ServeConfig(port=0, cache=CacheConfig()))
    await server.start()
    t3 = time.perf_counter()
    print(f"PERFBENCH_LISTENING port={server.port} build_s={t1 - t0!r} "
          f"index_s={t2 - t1!r} start_s={t3 - t2!r}", flush=True)

    rec = Recorder()
    uninstall = None
    stop = asyncio.Event()

    def trace(on: bool) -> None:
        # the client signals only while no request is outstanding, so no
        # thread is inside the engine or the obs ring when this runs; obs
        # stays on for the whole traced window because toggling it per
        # evaluation (as the in-process workloads do) would race the event
        # loop thread's own trace ingestion
        nonlocal uninstall
        if on and uninstall is None:
            obs.enable()
            uninstall = install(rec, serve=True)
        elif not on and uninstall is not None:
            uninstall()
            uninstall = None
            obs.disable()
        print(f"PERFBENCH_TRACE {'on' if on else 'off'}", flush=True)

    def parent_gone() -> None:
        # stdin is a pipe from the client: EOF means it exited, stop too
        if not os.read(0, 4096):
            loop.remove_reader(0)
            stop.set()

    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGUSR1, trace, True)
    loop.add_signal_handler(signal.SIGUSR2, trace, False)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_reader(0, parent_gone)
    await stop.wait()
    await server.shutdown()
    if uninstall is not None:
        uninstall()
    if args.spans:
        rec.dump(args.spans)
    print("PERFBENCH_STOPPED", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spans", default=None,
                   help="write the recorded spans here on shutdown")
    asyncio.run(amain(p.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
