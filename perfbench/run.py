"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``atpg-r432``   -- PODEM test generation on an ISCAS-85-scale circuit;
* ``scan-ralu``   -- scan insertion, core ATPG and sharded sequential
  verification of the registered 74181;
* ``grade-r5315`` -- no-drop wide fault grading of 4096 random patterns;
* ``service-mix`` -- open-loop store hits and cold misses on the
  campaign daemon.

With ``--trace 0`` the run measures the end-to-end metrics untraced.
With ``--trace 1`` it spends half of ``--seconds`` untraced and half
with every layer entry point wrapped (:mod:`layers`), and reports the
per-layer metrics, the unattributed time and the tracing overhead.

Every time in the end-to-end metrics is in *reference seconds*: the
measured time divided by the machine's slowness over it, as a
yardstick piece sampled while it runs reads it (:mod:`reference`).  The
machine this runs on changes speed by up to 2.5x from minute to minute;
measured seconds and slowness are printed beside each figure.

Set-up (building inputs, warming caches, starting the daemon) runs in
rounds (:func:`setup_round`), and ``setup_s`` is the median of every
set-up time taken.
Every output is checked against an oracle outside the timed regions; a
failed check counts in ``failed`` and makes the exit code 1.  The last
line of standard output is the JSON result.  ``--tiny`` shrinks every
workload for the benchmark's own smoke tests.

The benchmark imports ``repro`` from ``src/`` of the checkout it sits
in, and writes only to ``.perfbench-work/<pid>/`` there.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Batch workloads time set-up in this many rounds, all before the
#: measurement (the service: one round before, one after).  A round runs
#: set-up a fixed number of times (the workload's ``setup_repeats``), not
#: for a fixed time: the program keeps every circuit it compiled, so
#: peak memory grows with the number of set-ups, and that number must
#: not depend on the machine's speed.  The rounds come first so that
#: every repetition runs on the same state: a repetition right after a
#: fresh set-up of ``grade-r5315`` is up to 35% slower than the next.
SETUP_ROUNDS = 4
WORKLOADS = ("atpg-r432", "scan-ralu", "grade-r5315", "service-mix")
#: Untraced runs report the median of at least this many repetitions.
MIN_REPS = 3
#: A traced run must attribute all but this share of its wall time.
UNATTRIBUTED_LIMIT = 0.10


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``.

    Exits non-zero, printing no result, when the checkout holds no
    program, so a stray installed copy is never measured instead.
    """
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not this checkout")


def machine_record(service_backend: Optional[str]) -> Dict[str, Any]:
    """Where the numbers were taken."""
    from repro.exec.backends import auto_backend
    from repro.sim.wide import default_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "wide_backend": default_backend(),
        "exec_backend": auto_backend().name,
        "service_cell_backend": service_backend,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any finished child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def setup_round(workload: Any, times: List[float], sampler: Any) -> None:
    """Run ``workload.setup`` ``workload.setup_repeats`` times, timing each.

    Each set-up's time, less the yardstick pieces taken in it, is
    appended in reference seconds (over the slowness of the whole
    round).  The last set-up's state is the one the workload goes on
    with.
    """
    gc.collect()  # the previous set-up's inputs, before the next

    def round_() -> List[float]:
        raw = []
        for _ in range(workload.setup_repeats):
            first = len(sampler.times)
            start = time.perf_counter()
            workload.setup()
            raw.append(time.perf_counter() - start - sum(sampler.times[first:]))
        return raw

    timed = sampler.timed(round_)
    times.extend(t / timed.slowness for t in timed.result)


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def repetitions(
    workload: Any, seconds: float, min_reps: int, sampler: Any
) -> Tuple[List[Any], List[Dict[str, Any]]]:
    """Repeat the operation for about ``seconds``, at least ``min_reps`` times.

    Each repetition is timed by ``sampler`` and comes back as a
    :class:`reference.Timed`.  The count is fixed after the first
    repetition (``seconds`` over its time, rounded), so one slow
    repetition does not change how many the median is taken over.
    """
    reps: List[Any] = []
    summaries: List[Dict[str, Any]] = []
    count = min_reps
    started = time.perf_counter()
    while len(reps) < count:
        reps.append(sampler.timed(workload.operation))
        summaries.append(workload.summarize(reps[-1].result))
        if len(reps) == 1:
            count = max(min_reps, round(seconds / (time.perf_counter() - started)))
    return reps, summaries


def run_batch(
    workload: Any, seconds: float, trace: bool, setup: List[float], sampler: Any
) -> Dict[str, Any]:
    import layers
    from repro import telemetry
    from stats import median
    from tracing import Tracer, root_time

    # A traced run needs only the untraced wall the overhead is taken
    # against; the end-to-end figures come from untraced runs.
    if trace:
        reps, summaries = repetitions(workload, seconds / 2, 1, sampler)
    else:
        reps, summaries = repetitions(workload, seconds, MIN_REPS, sampler)
    walls = [r.reference_s for r in reps]
    out: Dict[str, Any] = {
        "reps": reps,
        "end_to_end": {
            "wall_s": median(walls),
            "fault_coverage": median([s["fault_coverage"] for s in summaries]),
            "test_patterns": median([s["test_patterns"] for s in summaries]),
        },
    }
    if trace:
        tracer = Tracer()
        layers.install(tracer)
        sink = telemetry.enable()
        try:
            traced_reps, traced = repetitions(workload, seconds / 2, 1, sampler)
        finally:
            telemetry.disable()
            tracer.uninstall()
        summaries.extend(traced)
        count = len(traced_reps)
        thread = threading.get_ident()
        unattributed = sum(
            (r.end - r.start) - root_time(tracer.spans, thread, r.start, r.end)
            for r in traced_reps
        )
        traced_seconds = sum(r.end - r.start for r in traced_reps)
        manifests = [m for s in traced for m in s["manifests"]]
        extra = {
            "atpg.aborted_faults": sum(s["aborted_faults"] for s in traced),
            "faultsim.sequential.busy_s": (
                tracer.busy("faultsim.sequential") + layers.shard_busy(manifests)
            ),
            "scan.core_atpg_s": layers.phase_seconds(manifests, "scan.full_scan_flow", "core_atpg"),
            "scan.verify_s": layers.phase_seconds(manifests, "scan.full_scan_flow", "verify"),
            "trace.unattributed_s": unattributed,
            "trace.unattributed_ratio": unattributed / traced_seconds,
            # In reference seconds: the machine's speed may differ
            # between the two halves.
            "trace.overhead_ratio": median([r.reference_s for r in traced_reps]) / median(walls),
        }
        values = layers.metrics(tracer, dict(sink.counters), extra)
        out["per_layer"] = per_repetition(values, count)
        out["layer_rows"] = {k: v / count for k, v in layers.layer_rows(tracer).items()}
        out["layer_rows"]["unattributed"] = unattributed / count
        out["traced_wall"] = traced_seconds / count
    out["peak_rss_mb"] = peak_rss_mb()
    problems = workload.check(summaries)
    out["attempted"] = len(summaries)
    out["failed"] = len(summaries) if problems else 0
    out["problems"] = problems
    return out


def per_repetition(values: Dict[str, float], reps: int) -> Dict[str, float]:
    """Totals over the traced repetitions, as figures per repetition."""
    import layers

    units = dict(layers.METRICS)
    extensive = {"count", "s", "bytes"}
    return {
        name: (value / reps if units.get(name) in extensive else value)
        for name, value in values.items()
    }


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def run_service(workload: Any, seconds: float, trace: bool, sampler: Any) -> Dict[str, Any]:
    import service_mix
    from stats import median

    # Only a traced run reports the sustained rate, so only it climbs
    # the ladder; an untraced run spends all of its time at nominal.
    untraced_s = seconds / 2 if trace else seconds
    steps = workload.measure(untraced_s, trace, sampler)
    nominal = steps[0]
    requests = [r for step in steps for r in step.requests]
    figures = service_mix.latency_figures(nominal)
    costs = [service_mix.job_cost(r) for r in nominal.requests if not workload.problems(r)]
    out: Dict[str, Any] = {
        "end_to_end": {
            # The user operation is an interactive job.  Bulk misses
            # reach it through interference; their own latency is a
            # per-layer figure (the median of all jobs sat where the
            # hit distribution turns steep, and swung by 40%).  In
            # reference seconds: over the slowness of the step's pieces.
            "wall_s": figures["hit_p50_ms"] / 1000.0 / nominal.slowness,
            "fault_coverage": median([c for c, _ in costs]),
            "test_patterns": median([p for _, p in costs]),
        },
        "figures": figures,
        "slowness": [nominal.slowness],
        "ladder": [service_mix.ladder_step(s) for s in steps],
    }
    if trace:
        out["sustained"] = service_mix.sustained(steps)
        workload.restart(traced=True)
        traced = workload.measure(seconds / 2, False, sampler)[0]
        workload.teardown()
        report = workload.reports[-1]
        steps.append(traced)
        out["slowness"].append(traced.slowness)
        requests += traced.requests
        rows = service_mix.attribution(traced, service_mix.spans_from(report))
        latency = rows.pop("latency")
        hit_queue = rows.pop("queue_wait.hit_tail_ms")
        miss_queue = rows.pop("queue_wait.miss_p50_ms")
        traced_figures = service_mix.latency_figures(traced)
        stats = report["stats"]
        out["per_layer"] = dict(report["metrics"])
        out["per_layer"].update({
            "service.accept.p50_ms": traced_figures["accept_p50_ms"],
            "service.accept.tail_ms": traced_figures["accept"].value,
            "service.queue_wait.hit_tail_ms": hit_queue,
            "service.queue_wait.miss_p50_ms": miss_queue,
            "service.cell.hit": float(stats["hits"]),
            "service.cell.miss": float(stats["misses"]),
            "service.cell.shared": float(stats["shared"]),
            "service.hit_p50_ms": figures["hit_p50_ms"],
            "service.hit_tail_ms": figures["hit_tail"].value,
            "service.miss_p50_ms": figures["miss_p50_ms"],
            "service.miss_tail_ms": figures["miss_tail"].value,
            "service.sustained_jobs_per_s": out["sustained"],
            "loadgen.late_tail_ms": max(
                service_mix.latency_figures(step)["late"].value for step in steps
            ),
            "trace.unattributed_s": rows["unattributed"],
            "trace.unattributed_ratio": rows["unattributed"] / latency if latency else 0.0,
            "trace.overhead_ratio": (
                traced_figures["hit_p50_ms"] / traced.slowness
                / (figures["hit_p50_ms"] / nominal.slowness)
            ),
            "service.lane_utilisation": service_mix.lane_utilisation(
                traced, service_mix.spans_from(report)
            ),
        })
        out["layer_rows"] = rows
        out["execute_rows"] = report["rows"]
        out["traced_wall"] = latency
    else:
        workload.teardown()
    out["cell_backend"] = workload.reports[-1]["cell_backend"]
    # The daemon is the program under test; the load generator is not.
    out["peak_rss_mb"] = max(report["peak_rss_mb"] for report in workload.reports)
    problems = [f"{r.tenant} job: {p}" for r in requests for p in workload.problems(r)]
    out["failed"] = sum(1 for r in requests if workload.problems(r))
    late = service_mix.late_problems(steps)
    if late:
        problems += late
        out["failed"] = len(requests)
    out["attempted"] = len(requests)
    out["problems"] = problems
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_report(name: str, machine: Dict[str, Any], setup: List[float], out: Dict[str, Any]) -> None:
    print(f"perfbench {name}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"setup_s: {len(setup)} runs, min {min(setup):.5f} max {max(setup):.5f} reference s")
    if "reps" in out:
        reps = out["reps"]
        print(f"repetitions, measured s: {', '.join(f'{r.end - r.start:.3f}' for r in reps)}")
        print(f"  slowness: {', '.join(f'{r.slowness:.3f}' for r in reps)}")
        print(f"  reference s: {', '.join(f'{r.reference_s:.3f}' for r in reps)}")
    if "slowness" in out:
        print(f"slowness of the measured steps: {', '.join(f'{v:.3f}' for v in out['slowness'])}")
    if "figures" in out:
        f = out["figures"]
        for label in ("hit_tail", "miss_tail", "accept", "late"):
            t = f[label]
            print(
                f"{label}: {t.value:.3f} ms at p{t.percentile:.1f} "
                f"({t.count} samples, {t.beyond} beyond)"
            )
        print(f"hit_p50_ms {f['hit_p50_ms']:.3f}  miss_p50_ms {f['miss_p50_ms']:.3f} (measured)")
        for step in out["ladder"]:
            print(
                f"step rate {step.rate:.1f}/s: hit tail {step.hit_tail_ms:.2f} ms, "
                f"backlog {step.backlog}, generator late {step.late_tail_ms:.2f} ms"
            )
        if "sustained" in out:
            print(f"sustained_jobs_per_s {out['sustained']:.1f}")
            print(f"lane utilisation at nominal {out['per_layer']['service.lane_utilisation']:.3f}")
    if "layer_rows" in out:
        total = out["traced_wall"]
        print(f"self time by layer (traced wall {total:.4f} s):")
        for layer, value in sorted(out["layer_rows"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:40s} {value:10.4f} s  {100 * value / total:6.2f} %")
        for layer, value in sorted(out.get("execute_rows", {}).items(), key=lambda kv: -kv[1]):
            print(f"  (daemon self time) {layer:27s} {value:10.4f} s")
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs for smoke tests")
    args = parser.parse_args(argv)

    import_program()
    import layers
    from compute import AtpgWorkload, GradeWorkload, ScanWorkload
    from reference import Sampler
    from service_mix import ServiceWorkload
    from stats import median

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace = bool(args.trace)
    try:
        if args.workload == "service-mix":
            workload: Any = ServiceWorkload(args.seed, args.tiny, workdir)
        else:
            cls = {"atpg-r432": AtpgWorkload, "scan-ralu": ScanWorkload, "grade-r5315": GradeWorkload}
            workload = cls[args.workload](args.seed, args.tiny)
        setup: List[float] = []
        sampler = Sampler(workload.yardstick)
        if args.workload == "service-mix":
            try:
                setup_round(workload, setup, sampler)
                out = run_service(workload, args.seconds, trace, sampler)
                if not trace:
                    setup_round(workload, setup, sampler)
            finally:
                workload.teardown()
            backend = out["cell_backend"]
        else:
            for _ in range(1 if trace else SETUP_ROUNDS):
                setup_round(workload, setup, sampler)
            out = run_batch(workload, args.seconds, trace, setup, sampler)
            backend = None
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    machine = machine_record(backend)
    if trace and out["per_layer"]["trace.unattributed_ratio"] > UNATTRIBUTED_LIMIT:
        out["problems"].append(
            f"traced run left {out['per_layer']['trace.unattributed_ratio']:.1%} of wall unattributed"
        )
        out["failed"] = max(out["failed"], 1)
    print_report(args.workload, machine, setup, out)
    if trace:
        metrics = {
            name: {"value": float(out["per_layer"][name]), "unit": unit}
            for name, unit in layers.METRICS
        }
        metrics["failed_ratio"]["value"] = out["failed"] / out["attempted"]
    else:
        e2e = out["end_to_end"]
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "wall_s": {"value": e2e["wall_s"], "unit": "s"},
            "fault_coverage": {"value": e2e["fault_coverage"], "unit": "ratio"},
            "test_patterns": {"value": float(e2e["test_patterns"]), "unit": "count"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
