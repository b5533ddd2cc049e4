"""The service workload's daemon: one campaign service process.

    python3 perfbench/daemon.py --store DIR --ready FILE --report FILE [--trace]

Runs :class:`repro.service.CampaignService` until a ``shutdown``
request, then writes ``--report``: the service counters, the cell
backend it selected and the daemon's peak memory.  With ``--trace``
every layer entry point is wrapped (:func:`layers.install`) and the
report also carries the per-layer metrics, the layer self times, and
the scheduler and execution spans the load generator splits job
latency with.  Span times are ``time.perf_counter()`` readings, which
on Linux share one monotonic clock across processes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro import telemetry  # noqa: E402
from repro.service import CampaignService, ServiceConfig  # noqa: E402

import layers  # noqa: E402
from service_mix import LANES  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Spans the load generator needs, by name.
EXPORTED = ("service.scheduler", "service.execute")


def peak_rss_mb() -> float:
    """This process's own peak resident memory.

    ``VmHWM`` rather than ``ru_maxrss``: the latter keeps the peak of
    the forked parent from before ``exec``, here the load generator.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


async def serve(config: ServiceConfig) -> CampaignService:
    service = CampaignService(config)
    await service.start()
    await service.serve_until_stopped()
    return service


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
        sink = telemetry.enable()
    config = ServiceConfig(
        store_root=args.store, lanes=LANES, max_retries=0, ready_file=args.ready
    )
    service = asyncio.run(serve(config))
    backend = service._cell_backend
    report = {
        "stats": service.stats.to_dict(),
        "cell_backend": backend.name if backend is not None else "inline",
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        telemetry.disable()
        tracer.uninstall()
        report["metrics"] = layers.metrics(tracer, dict(sink.counters), {})
        report["rows"] = layers.layer_rows(tracer)
        report["spans"] = [
            {"name": s.name, "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in tracer.spans
            if s.name in EXPORTED
        ]
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
