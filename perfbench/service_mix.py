"""The service workload: reads and writes mixed on one daemon.

One :class:`~repro.service.CampaignService` (two lanes) runs in its
own process (``daemon.py``, as the service is deployed) over a store
warmed in :meth:`ServiceWorkload.setup`.  Sharing a process with the
load generator made hit latency swing by 20% from run to run on a
2-core machine, from lock contention with the client's decoding of
payloads; in a process of its own it varied by about 5%.

The load is an open loop on this process's event loop: every job has a
due time from a fixed offered rate, and its latency is measured from
that due time, so a stall also charges the jobs queued behind it.  Each
tenant owns one connection at a time (at most ``nproc`` connections):
tenant ``interactive`` asks for cells of the warmed working set (store
hits, returned with payloads), tenant ``bulk`` for cells with fresh
seeds (cold misses: execution, store put, quota charge).

A measurement is a nominal step, followed in a traced run by a ladder
of fixed multiples of the nominal rates.  Hit and miss latency are read
at the nominal step; the sustained rate is the highest ladder step
whose hit tail stays within :data:`HIT_LIMIT_MS` without a growing
backlog.  The end-to-end ``wall_s`` is the nominal hit median in
reference seconds: over the machine's slowness that yardstick pieces,
taken on the load generator's thread during the step, read
(:mod:`reference`).

The traffic is an assumption, not a record: the repository has no
traffic log.  The nominal rates are fixed, not derived from a
measurement, so that a faster or slower program meets the same offered
load.  They were chosen as a light, steady load on two lanes.  On a
2-core x86-64 VM a traced run measures the lanes busy 5-10% of the
nominal step (``service.lane_utilisation``), and the ladder sustains 2x
to 8x the nominal rates (48-192 jobs/s), as the machine's speed varies.
``HIT_LIMIT_MS`` (50 ms) is an interactive response target; the
nominal hit median there is 3-7 ms and its tail 12-27 ms.  ``WORKING_SET`` (6 cells, two of each cold
workload) keeps every hit a store read of a small, fixed set.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign import CampaignSpec
from repro.service import ServiceClient
from repro.service.client import wait_for_ready
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode_line,
    submit_request,
)

from stats import LadderStep, as_ms, median, sustained_rate, tail
from tracing import Span

HERE = Path(__file__).resolve().parent

#: Jobs per second each tenant offers at the nominal step.
NOMINAL_RATES = {"interactive": 20.0, "bulk": 4.0}
#: Ladder steps, as multiples of the nominal rates.
LADDER = (2.0, 4.0, 8.0)
#: Hit tail the service must hold for a ladder step to count.
HIT_LIMIT_MS = 50.0
#: A generator whose lateness tail exceeds this invalidates the run.
LATE_LIMIT_MS = 25.0
WORKING_SET = 6
#: Concurrent cold lanes of the daemon.
LANES = 2
COLD_WORKLOADS = ("c17", "ripple4", "alu74181")
PARAMS = {"method": "podem"}


def cell_spec(name: str, workload: str, seed: int) -> Dict[str, Any]:
    """A single-cell ATPG campaign spec in wire form."""
    return CampaignSpec(
        name=name,
        workloads=[workload],
        engines=["parallel_pattern"],
        seeds=[seed],
        flows=["atpg"],
        params=dict(PARAMS),
    ).to_dict()


def stripped(payload: Dict[str, Any]) -> bytes:
    """Canonical payload bytes without wall-clock fields."""

    def strip(node: Any) -> Any:
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "duration_s"}
        if isinstance(node, list):
            return [strip(item) for item in node]
        return node

    return json.dumps(strip(payload), sort_keys=True).encode("utf-8")


@dataclass
class Request:
    """One scheduled job and what the client saw of it."""

    due: float
    tenant: str
    spec: Dict[str, Any]
    expect_hit: bool
    working_index: int = -1
    late: float = 0.0
    sent: float = 0.0
    accepted: float = 0.0
    done: float = 0.0
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.done - self.due


class DaemonProcess:
    """``daemon.py`` in its own process, as the service is deployed."""

    def __init__(self, store: Path, workdir: Path, traced: bool) -> None:
        self.ready = workdir / "ready.json"
        self.report_path = workdir / "report.json"
        for path in (self.ready, self.report_path):
            if path.exists():
                path.unlink()
        command = [
            sys.executable, str(HERE / "daemon.py"), "--store", str(store),
            "--ready", str(self.ready), "--report", str(self.report_path),
        ]
        self.process = subprocess.Popen(command + (["--trace"] if traced else []))
        try:
            info = wait_for_ready(self.ready, timeout=60)
        except Exception:
            self.process.kill()
            self.process.wait(timeout=60)
            raise
        self.address: Tuple[str, int] = (info["host"], info["port"])

    def stop(self) -> Dict[str, Any]:
        """Drain and stop the daemon; returns its report."""
        try:
            ServiceClient(*self.address, timeout=120).shutdown()
            code = self.process.wait(timeout=150)
        except BaseException:
            self.process.kill()
            self.process.wait(timeout=60)
            raise
        if code != 0:
            raise RuntimeError(f"service daemon exited with {code}")
        return json.loads(self.report_path.read_text(encoding="utf-8"))


async def _send(address: Tuple[str, int], request: Request, payloads: bool) -> None:
    """Submit one job and read its events; a broken connection or a bad
    line ends the job with a client-side ``error`` event, which the
    output check counts as a failure."""
    request.sent = time.perf_counter()
    writer = None
    try:
        reader, writer = await asyncio.open_connection(*address, limit=MAX_LINE_BYTES)
        writer.write(encode_line(submit_request(
            request.spec, tenant=request.tenant, return_payloads=payloads
        )))
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                break
            event = decode_line(line)
            request.events.append(event)
            if event.get("event") == "accepted":
                request.accepted = time.perf_counter()
            if event.get("event") in ("done", "error"):
                break
    except (OSError, ProtocolError, ValueError) as exc:
        request.events.append({"event": "error", "error": f"client: {exc}"})
    finally:
        request.done = time.perf_counter()
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _drive(address: Tuple[str, int], schedule: Sequence[Request], start: float) -> None:
    """Release each request at its due time to its tenant's connection."""
    queues: Dict[str, "asyncio.Queue[Optional[Request]]"] = {
        tenant: asyncio.Queue() for tenant in {r.tenant for r in schedule}
    }

    async def tenant_loop(queue: "asyncio.Queue[Optional[Request]]") -> None:
        while True:
            request = await queue.get()
            if request is None:
                return
            await _send(address, request, payloads=request.expect_hit)

    workers = [asyncio.ensure_future(tenant_loop(q)) for q in queues.values()]
    for request in schedule:
        delay = start + request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        request.due += start
        request.late = time.perf_counter() - request.due
        queues[request.tenant].put_nowait(request)
    for queue in queues.values():
        queue.put_nowait(None)
    await asyncio.gather(*workers)


@dataclass
class StepResult:
    rate: float
    duration: float
    requests: List[Request]
    #: The machine's slowness over the step (:mod:`reference`).
    slowness: float = 1.0


class ServiceWorkload:
    """The ``service-mix`` workload (see the module docstring)."""

    name = "service-mix"
    yardstick = "python"
    setup_repeats = 2  # each 0.6-1.2 s on a 2-core VM

    def __init__(self, seed: int, tiny: bool = False, workdir: Path = Path(".")) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.daemon: Optional[DaemonProcess] = None
        self.store = workdir / "store"
        self.working: List[Dict[str, Any]] = []
        self.copies: List[bytes] = []
        self.next_cold = 0
        self.reports: List[Dict[str, Any]] = []

    @property
    def address(self) -> Tuple[str, int]:
        return self.daemon.address

    # -- set-up ---------------------------------------------------------
    def _working_set(self) -> List[Dict[str, Any]]:
        return [
            cell_spec(f"hit-{i}", COLD_WORKLOADS[i % len(COLD_WORKLOADS)],
                      self.seed * 10_000 + i)
            for i in range(2 if self.tiny else WORKING_SET)
        ]

    def setup(self) -> None:
        """Start a daemon on a fresh store and warm the working set."""
        self.teardown()
        shutil.rmtree(self.store, ignore_errors=True)
        self.daemon = DaemonProcess(self.store, self.workdir, traced=False)
        self.working = self._working_set()
        warm = [Request(0.0, "warmup", spec, True) for spec in self.working]
        asyncio.run(self._sequential(warm))
        self.copies = []
        for request in warm:
            cells = [e for e in request.events if e.get("event") == "cell"]
            if len(cells) != 1 or cells[0].get("status") != "ok":
                raise RuntimeError(f"warm-up cell failed: {request.events[-1:]}")
            self.copies.append(stripped(cells[0]["payload"]))

    def restart(self, traced: bool) -> None:
        """Replace the daemon with a new one on the same warmed store."""
        self.teardown()
        self.daemon = DaemonProcess(self.store, self.workdir, traced)

    async def _sequential(self, requests: Sequence[Request]) -> None:
        for request in requests:
            await _send(self.address, request, payloads=True)

    def teardown(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            self.reports.append(daemon.stop())

    # -- load -----------------------------------------------------------
    def _schedule(self, scale: float, duration: float) -> List[Request]:
        rates = {t: r * scale * (0.25 if self.tiny else 1.0) for t, r in NOMINAL_RATES.items()}
        schedule: List[Request] = []
        for tenant, rate in rates.items():
            count = max(1, int(round(rate * duration)))
            for n in range(count):
                due = n / rate
                if tenant == "interactive":
                    index = self.rng.randrange(len(self.working))
                    schedule.append(Request(due, tenant, self.working[index], True, index))
                else:
                    workload = self.rng.choice(COLD_WORKLOADS)
                    seed = self.seed * 10_000 + 5_000 + self.next_cold
                    self.next_cold += 1
                    spec = cell_spec(f"cold-{seed}", workload, seed)
                    schedule.append(Request(due, tenant, spec, False))
        schedule.sort(key=lambda r: (r.due, r.tenant))
        return schedule

    def _step(self, scale: float, duration: float, sampler: Any) -> StepResult:
        schedule = self._schedule(scale, duration)
        timed = sampler.timed(
            lambda: asyncio.run(_drive(self.address, schedule, time.perf_counter() + 0.05))
        )
        total = sum(NOMINAL_RATES.values()) * scale * (0.25 if self.tiny else 1.0)
        return StepResult(total, duration, schedule, timed.slowness)

    def measure(self, seconds: float, ladder: bool, sampler: Any) -> List[StepResult]:
        """The nominal step, then (optionally) the rate ladder; ``sampler``
        (a :class:`reference.Sampler`) reads the machine's slowness."""
        if not ladder:
            return [self._step(1.0, seconds, sampler)]
        nominal = seconds / 2
        steps = [self._step(1.0, nominal, sampler)]
        for scale in LADDER:
            steps.append(self._step(scale, (seconds - nominal) / len(LADDER), sampler))
        return steps

    # -- checks ---------------------------------------------------------
    def problems(self, request: Request) -> List[str]:
        """Why one job's output is wrong (empty when it is right)."""
        events = request.events
        found = []
        if [e.get("seq") for e in events] != list(range(len(events))):
            found.append("event seq is not gapless")
        done = events[-1] if events else {}
        if done.get("event") != "done" or done.get("failed"):
            found.append(f"job did not finish cleanly: {done}")
            return found
        hits, misses = done.get("hits"), done.get("misses")
        if (hits, misses) != ((1, 0) if request.expect_hit else (0, 1)):
            found.append(f"expected {'hit' if request.expect_hit else 'miss'}, got {done}")
        cells = [e for e in events if e.get("event") == "cell"]
        if len(cells) != 1:
            found.append(f"expected one cell event, got {len(cells)}")
        elif request.expect_hit:
            if stripped(cells[0]["payload"]) != self.copies[request.working_index]:
                found.append("hit payload differs from the set-up copy")
        return found


def job_cost(request: Request) -> Tuple[float, float]:
    """(coverage, patterns) of the job's cell, from its ``cell`` event."""
    cell = next(e for e in request.events if e.get("event") == "cell")
    return cell["stats"]["coverage"], float(cell["stats"]["patterns"])


def latency_figures(step: StepResult) -> Dict[str, Any]:
    """Hit/miss latency and generator lateness of one step."""
    hits = as_ms([r.latency for r in step.requests if r.expect_hit])
    misses = as_ms([r.latency for r in step.requests if not r.expect_hit])
    return {
        "hit_p50_ms": median(hits),
        "hit_tail": tail(hits),
        "miss_p50_ms": median(misses),
        "miss_tail": tail(misses),
        "accept": tail(as_ms([r.accepted - r.sent for r in step.requests])),
        "accept_p50_ms": median(as_ms([r.accepted - r.sent for r in step.requests])),
        "late": tail(as_ms([r.late for r in step.requests])),
    }


def ladder_step(step: StepResult) -> LadderStep:
    """The ladder rule's view of one step."""
    end = min(r.due for r in step.requests) + step.duration
    backlog = sum(1 for r in step.requests if r.due <= end and r.done > end)
    failed = sum(
        1 for r in step.requests
        if not r.events or r.events[-1].get("event") != "done" or r.events[-1].get("failed")
    )
    figures = latency_figures(step)
    return LadderStep(
        rate=step.rate,
        hit_tail_ms=figures["hit_tail"].value,
        backlog=backlog,
        failed=failed,
        late_tail_ms=figures["late"].value,
    )


def late_problems(steps: Sequence[StepResult]) -> List[str]:
    """One line per step on which the load generator fell behind.

    Every step's figures are reported (the ladder's through the
    sustained rate), so lateness on any step invalidates the run.
    """
    found = []
    for step in steps:
        late = latency_figures(step)["late"].value
        if late > LATE_LIMIT_MS:
            found.append(
                f"load generator ran {late:.1f} ms late at {step.rate:.0f} jobs/s "
                f"(limit {LATE_LIMIT_MS} ms)"
            )
    return found


def sustained(steps: Sequence[StepResult]) -> float:
    tenants = len(NOMINAL_RATES)
    return sustained_rate([ladder_step(s) for s in steps], HIT_LIMIT_MS, tenants)


def _match(spans: Sequence[Span], key: str, after: float) -> Optional[Span]:
    for span in spans:
        if span.attrs.get("key") == key and span.end >= after:
            return span
    return None


def attribution(step: StepResult, spans: Sequence[Span]) -> Dict[str, float]:
    """Split every job's latency over the layers it passed through.

    A job's latency runs from its due time to the client reading
    ``done``.  It is cut at layer boundaries the daemon's wrappers
    recorded: waiting for the tenant's connection (``loadgen.wait``),
    the scheduler push of its cell (``service.accept``), the lane's pop
    (``service.queue_wait``), the lane's execution span
    (``service.execute``), and the events back to the client
    (``service.stream``).  What falls between recorded boundaries is
    unattributed.
    """

    def ordered(name: str, op: Optional[str] = None) -> List[Span]:
        chosen = [
            s for s in spans
            if s.name == name and "key" in s.attrs and s.attrs.get("op") == op
        ]
        return sorted(chosen, key=lambda s: s.end)

    pushes = ordered("service.scheduler", "push")
    pops = ordered("service.scheduler", "pop")
    executes = ordered("service.execute")
    rows = {name: 0.0 for name in (
        "loadgen.wait", "service.accept", "service.queue_wait",
        "service.execute", "service.stream", "unattributed",
    )}
    queue_hits: List[float] = []
    queue_misses: List[float] = []
    for request in step.requests:
        cell = next((e for e in request.events if e.get("event") == "cell"), None)
        rows["loadgen.wait"] += request.sent - request.due
        push = _match(pushes, cell["key"], request.sent) if cell else None
        pop = _match(pops, cell["key"], push.end) if push else None
        execute = _match(executes, cell["key"], pop.end) if pop else None
        if execute is None:
            rows["unattributed"] += request.done - request.sent
            continue
        wait = pop.end - push.end
        (queue_hits if request.expect_hit else queue_misses).append(wait)
        rows["service.accept"] += push.end - request.sent
        rows["service.queue_wait"] += wait
        rows["service.execute"] += execute.duration
        rows["service.stream"] += request.done - execute.end
        rows["unattributed"] += execute.start - pop.end
    rows["queue_wait.hit_tail_ms"] = tail(as_ms(queue_hits)).value
    rows["queue_wait.miss_p50_ms"] = median(as_ms(queue_misses))
    rows["latency"] = sum(r.latency for r in step.requests)
    return rows


def lane_utilisation(step: StepResult, spans: Sequence[Span]) -> float:
    """Share of the step's lane time spent executing cells.

    The lanes' ``service.execute`` spans, clipped to the step's window,
    over ``LANES`` times the window.
    """
    start = min(r.due for r in step.requests)
    end = max(r.done for r in step.requests)
    busy = sum(
        max(0.0, min(s.end, end) - max(s.start, start))
        for s in spans if s.name == "service.execute"
    )
    return busy / (LANES * (end - start))


def spans_from(report: Dict[str, Any]) -> List[Span]:
    """The exported spans of a traced daemon's report."""
    return [
        Span(s["name"], s["start"], s["end"], attrs=s["attrs"])
        for s in report.get("spans", [])
    ]
