"""Sharded multi-process fault simulation with an exact merge.

The paper's §II cost model says test generation and fault simulation
grow roughly with the *square* of gate count — the classic answer is to
throw parallel hardware at the fault list.  This module splits a
collapsed fault list into deterministic contiguous shards, runs any
Engine-API fault simulator (serial, deductive, parallel-fault,
parallel-pattern) or the sequential scan-flow verifier over each shard
in a worker process, and folds the per-shard
:class:`~repro.faultsim.coverage.CoverageReport` objects back together
with ``merge_reports(axis="faults")``.

Two properties make the merge *exact* rather than approximate:

* every engine decides each fault's detection (and first-detection
  index) independently of the other faults in its list, so a fault's
  row in the report cannot depend on which shard it landed in;
* shards are contiguous slices of the fault list, and the fault-axis
  merge concatenates them in shard order, so the merged report is
  **bit-identical** to the single-process run — same fault order, same
  first-detection indices, same coverage
  (``tests/test_sharded.py`` holds every engine to this).

Worker execution goes through a pluggable :mod:`repro.exec` backend,
resolved by :func:`~repro.exec.create_backend` (``backend=`` accepts
``"inline"``/``"fork"``/``"spawn"``/``"thread-lane"``, an
:class:`~repro.exec.ExecutorBackend` instance, or ``None`` for
auto-selection: fork where available, else spawn — so spawn-only
platforms get a real pool instead of silently degrading).
Execution still degrades gracefully: ``workers <= 1``, a single shard,
or no usable process backend all fall back to in-process execution
(the shard/merge path still runs when more than one shard was
requested, so the merge stays covered cross-platform).  Every
degradation is *observable*: a ``faultsim.sharded.fallback`` counter
fires and the reason lands both in the manifest ``workers`` section's
``fallbacks`` list and in its top-level ``reason`` field
(``fork_unavailable`` / ``spawn_unavailable`` / ``single_shard``).
Telemetry from each worker is captured in the child, shipped back with
the report, folded into the parent's active sink, and aggregated into
the ``workers`` section of the flow's
:class:`~repro.telemetry.RunManifest`.

Pooled execution is *supervised* by the backend's ``map``
(:mod:`repro.resilience` supplies the policy and outcome types): a
worker that crashes, hangs past the supervision timeout, or raises is
retried with jittered exponential backoff; a shard that keeps failing
falls back to chaos-free in-process execution, so transient worker
faults never change the result — it stays bit-identical to the
fault-free run.  A shard that fails *deterministically* (in-process
too) is handled per the :class:`~repro.resilience.FailurePolicy`: ``raise``
propagates (default), ``quarantine`` bisects the shard down to the
smallest failing fault subset and excludes only that (reported in the
manifest's validated ``failures`` section), ``degrade`` excludes the
whole shard.  The seeded chaos harness
(:class:`~repro.resilience.ChaosConfig`, ``tests/test_chaos.py``)
exists to prove all of the above.
"""

from __future__ import annotations

import time
import weakref
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..exec.backends import ExecutorBackend, create_backend
from ..netlist.circuit import Circuit
from ..faults.stuck_at import Fault
from ..faults.models import (
    FaultModel,
    UnsupportedFaultModelError,
    plan_fault_model,
)
from ..resilience import (
    ChaosConfig,
    FailurePolicy,
    FailureRecord,
    SupervisionPolicy,
    failure_record,
)
from .coverage import CoverageReport, merge_reports

Pattern = Mapping[str, int]

#: Engine name for the sequential (scan-schedule) verifier, accepted by
#: this module alongside the combinational :class:`repro.faultsim.Engine`
#: names.  It is not part of the combinational Engine enum because its
#: input is a clock-cycle sequence, not independent patterns.
SEQUENTIAL_ENGINE = "sequential"


def shard_faults(faults: Sequence[Fault], shards: int) -> List[List[Fault]]:
    """Split a fault list into deterministic contiguous shards.

    The first ``len(faults) % shards`` shards get one extra fault, so
    sizes differ by at most one; concatenating the shards in order
    reproduces the input list exactly (the invariant the fault-axis
    merge relies on).  Empty trailing shards are dropped, so fewer
    faults than shards yields ``len(faults)`` singleton shards.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    faults = list(faults)
    if not faults:
        return []
    shards = min(shards, len(faults))
    base, extra = divmod(len(faults), shards)
    out: List[List[Fault]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(faults[start : start + size])
        start += size
    return out


def _engine_name(engine: Any) -> str:
    """Normalize an engine selector (enum, str) to its string name."""
    from . import Engine

    if isinstance(engine, Engine):
        return engine.value
    if engine == SEQUENTIAL_ENGINE:
        return SEQUENTIAL_ENGINE
    return Engine(engine).value


def _build_simulator(
    circuit: Circuit,
    engine: str,
    faults: Sequence[Fault],
    engine_kwargs: Dict[str, Any],
):
    from . import create_simulator
    from .sequential import SequentialFaultSimulator

    if engine == SEQUENTIAL_ENGINE:
        return SequentialFaultSimulator(circuit, faults=faults, **engine_kwargs)
    return create_simulator(circuit, engine, faults=faults, **engine_kwargs)


# ----------------------------------------------------------------------
# Worker side.  State travels to the children by fork inheritance (the
# supervisor forks one child per shard attempt and the task closure
# references the state directly), so the circuit and pattern set are
# never pickled per task — only the shard's report (plus telemetry)
# comes back over the result pipe.
# ----------------------------------------------------------------------
def _execute_shard(state: Dict[str, Any], index: int):
    """Run one fault shard; returns (index, report, counters, seconds).

    Poisoned faults (chaos harness) raise here, in workers and in the
    parent alike — a *deterministic* failure that retries and the
    in-process fallback cannot heal, which is exactly what the
    quarantine/bisection path exists for.
    """
    shard = state["shards"][index]
    chaos: Optional[ChaosConfig] = state.get("chaos")
    if chaos is not None:
        chaos.check_poison_faults(shard)
    start = time.perf_counter()
    with telemetry.capture() as session:
        with telemetry.span(
            "faultsim.shard",
            shard=index,
            engine=state["engine"],
            circuit=state["circuit"].name,
        ):
            simulator = _build_simulator(
                state["circuit"], state["engine"], shard, state["engine_kwargs"]
            )
            report = simulator.run(state["patterns"], **state["run_kwargs"])
    elapsed = time.perf_counter() - start
    return index, report, dict(session.counters), elapsed


def _shard_task(state: Dict[str, Any], index: int, attempt: int):
    """Backend task entry point: chaos injection, then one shard.

    Module-level (not a closure) so the ``spawn`` backend can pickle it
    into fresh-interpreter workers.  Chaos injection is mode-aware:
    ``state["inject"]`` is ``"worker"`` only under isolated (process)
    backends — :meth:`ChaosConfig.inject_worker` may ``os._exit`` the
    process, which must never happen in the caller's own process under
    the inline or thread-lane backends (those get ``"inline"``
    injection, which only raises).
    """
    chaos: Optional[ChaosConfig] = state.get("chaos")
    if chaos is not None:
        inject = state.get("inject")
        site = f"shard:{index}"
        if inject == "worker":
            chaos.inject_worker(site, attempt)
        elif inject == "inline":
            chaos.inject_inline(site, attempt)
    return _execute_shard(state, index)


class ShardedFaultSimulator:
    """Multi-process fault simulation behind the uniform Engine API.

    Construction mirrors ``create_simulator`` plus the parallelism
    knobs: ``workers`` pool slots (default 1 = in-process), ``shards``
    fault shards (default: one per worker), ``backend`` (a
    :mod:`repro.exec` backend name/instance, or ``None`` to
    auto-select fork-then-spawn).  ``engine`` accepts every
    :class:`repro.faultsim.Engine` name and ``"sequential"`` for the
    scan-schedule verifier.

    ``run(patterns)`` returns a report bit-identical to the
    single-process engine's; ``detects``/``detected_faults`` (single
    pattern, latency-bound) always run in-process on a lazily built
    local simulator.  :attr:`stats` accumulates the manifest-ready
    ``workers`` section over every ``run`` call.

    Fault tolerance knobs: ``supervision`` (a
    :class:`~repro.resilience.SupervisionPolicy`: per-shard timeout,
    retry budget, backoff — defaults to bounded retries with no
    timeout), ``failure_policy`` (``"raise"`` / ``"quarantine"`` /
    ``"degrade"``, applied only to shards that fail *deterministically*
    after the in-process fallback), and ``chaos`` (a test-only
    :class:`~repro.resilience.ChaosConfig` injecting worker faults).
    Permanent failures accumulate in :attr:`failures` and surface via
    :meth:`failures_section`.
    """

    def __init__(
        self,
        circuit: Circuit,
        engine: Union[str, Any] = "parallel_pattern",
        faults: Optional[Sequence[Any]] = None,
        collapse: bool = True,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
        failure_policy: Union[str, FailurePolicy] = FailurePolicy.RAISE,
        chaos: Optional[ChaosConfig] = None,
        fault_model: Union[str, FaultModel] = FaultModel.STUCK_AT,
        backend: Union[None, str, ExecutorBackend] = None,
        **engine_kwargs: Any,
    ) -> None:
        self.engine = _engine_name(engine)
        model = FaultModel.coerce(fault_model)
        if self.engine == SEQUENTIAL_ENGINE and model is not FaultModel.STUCK_AT:
            # The scan-schedule verifier replays clock-cycle sequences on
            # the sequential netlist; the reduction composites are
            # combinational pattern(-pair) machines, so there is nothing
            # sound it could grade for the other models.
            raise UnsupportedFaultModelError(
                f"the sequential verifier only grades stuck-at faults; "
                f"got fault model {model.value!r}"
            )
        plan = plan_fault_model(circuit, model, faults=faults, collapse=collapse)
        self.fault_model_plan = plan
        self.circuit = plan.circuit
        self.faults = list(plan.faults)
        self.workers = max(1, int(workers or 1))
        self.shard_count = max(1, int(shards if shards is not None else self.workers))
        self.supervision = supervision if supervision is not None else SupervisionPolicy()
        self.failure_policy = FailurePolicy.coerce(failure_policy)
        self.chaos = chaos
        self.engine_kwargs = dict(engine_kwargs)
        self.backend_spec = backend
        self._backends: Dict[str, ExecutorBackend] = {}
        self._local = None
        self.failures: List[FailureRecord] = []
        self.stats: Dict[str, Any] = {
            "requested": self.workers,
            "effective": 0,
            "mode": "inprocess",
            "backend": None,
            "reason": None,
            "runs": 0,
            "shards": [],
            "fallbacks": [],
            "supervision": {
                "retries": 0,
                "crashes": 0,
                "hangs": 0,
                "exceptions": 0,
                "fallbacks": 0,
            },
        }

    # -- backend resolution --------------------------------------------
    def _resolve_backend(self) -> Tuple[Optional[ExecutorBackend], Optional[str]]:
        """The pooled backend for this run, or ``(None, reason)``.

        Resolution is :func:`~repro.exec.create_backend`'s (auto-select
        prefers fork, else spawn).  A backend unavailable on this
        platform degrades to in-process with a ``<name>_unavailable``
        reason — ``fork_unavailable`` under auto-selection — never
        silently.  Named backends are built once per simulator.
        """
        spec = self.backend_spec
        backend = create_backend(spec)
        if isinstance(spec, ExecutorBackend):
            return backend, None
        if not type(backend).available():
            return None, (
                "fork_unavailable" if spec is None
                else f"{backend.name}_unavailable"
            )
        cached = self._backends.setdefault(backend.name, backend)
        if cached is backend:
            # Persistent-worker backends (spawn) must not leak children
            # when the simulator is dropped without an explicit close().
            weakref.finalize(self, backend.close)
        return cached, None

    def close(self) -> None:
        """Release any persistent backend workers (idempotent)."""
        for instance in self._backends.values():
            instance.close()
        self._backends.clear()

    # -- in-process delegate -------------------------------------------
    def _local_simulator(self):
        if self._local is None:
            self._local = _build_simulator(
                self.circuit, self.engine, self.faults, self.engine_kwargs
            )
        return self._local

    def detects(self, pattern: Pattern, fault: Fault) -> bool:
        """Single-pattern probe (ATPG hook); always in-process."""
        return self._local_simulator().detects(pattern, fault)

    def detected_faults(self, pattern: Pattern) -> List[Fault]:
        """All listed faults one pattern detects; always in-process."""
        return self._local_simulator().detected_faults(pattern)

    # -- sharded execution ---------------------------------------------
    def run(self, patterns: Sequence[Pattern], **run_kwargs: Any) -> CoverageReport:
        """Fault-simulate the pattern set across the supervised pool.

        The detected-fault set, first-detection indices, fault order and
        coverage are identical to the single-process engine run for any
        ``workers``/``shards`` combination — including runs where the
        chaos harness crashes, hangs or poisons workers, as long as
        every failure is transient (healed by retry or in-process
        fallback).  Only a deterministic failure under a non-``raise``
        :class:`~repro.resilience.FailurePolicy` changes the report, by
        excluding the quarantined faults — and that exclusion is
        recorded in :attr:`failures`.
        """
        shards = shard_faults(self.faults, self.shard_count)
        backend, avail_reason = self._resolve_backend()
        use_pool = self.workers > 1 and len(shards) > 1 and backend is not None
        mode = backend.name if use_pool and backend is not None else "inprocess"
        if use_pool and backend is not None:
            # "effective" is pool slots granted; inline has exactly one.
            effective = (
                1 if backend.name == "inline"
                else min(self.workers, len(shards))
            )
            self.stats["backend"] = backend.name
            self.stats["reason"] = None
        else:
            effective = 1
            if self.workers > 1:
                # Degrading to in-process is never silent: counted in
                # telemetry, listed in ``fallbacks``, and surfaced as
                # the manifest workers section's top-level ``reason``.
                reason = avail_reason if backend is None else "single_shard"
                self.stats["reason"] = reason
                self._record_fallback(reason)
        with telemetry.span(
            "faultsim.sharded.run",
            engine=self.engine,
            circuit=self.circuit.name,
            workers=effective,
            shards=len(shards),
            mode=mode,
        ):
            if len(shards) <= 1 and self.workers <= 1:
                # Pure single-process path: no shard/merge bookkeeping.
                report = self._local_simulator().run(patterns, **run_kwargs)
                self._record_run(mode, 1, [])
                return report
            state = {
                "circuit": self.circuit,
                "engine": self.engine,
                "patterns": list(patterns),
                "shards": shards,
                "engine_kwargs": self.engine_kwargs,
                "run_kwargs": dict(run_kwargs),
                "chaos": self.chaos,
            }
            if not shards:
                # Empty fault list: one empty-report "shard" keeps the
                # result identical to the single-process run.
                report = self._local_simulator().run(patterns, **run_kwargs)
                self._record_run(mode, 1, [])
                return report
            if use_pool and backend is not None:
                shard_rows, report_lists = self._run_backend(
                    state, shards, effective, backend
                )
            else:
                shard_rows, report_lists = self._run_inprocess(state, shards)
            shard_rows.sort(key=lambda row: row["shard"])
            flat = [r for reports in report_lists for r in reports]
            if flat:
                merged = merge_reports(flat, axis="faults")
            else:
                # Every shard degraded away: an empty (but well-formed)
                # report, so callers still get coverage arithmetic.
                merged = CoverageReport(
                    self.circuit.name, len(state["patterns"]), []
                )
            self._record_run(mode, effective, shard_rows)
            return merged

    def _run_backend(
        self,
        state: Dict[str, Any],
        shards: List[List[Fault]],
        effective: int,
        backend: ExecutorBackend,
    ) -> Tuple[List[Dict[str, Any]], List[List[CoverageReport]]]:
        """Pooled path: supervised backend map, retries, per-shard fallback."""
        if self.chaos is not None:
            # Worker-kind injection may os._exit the process: only safe
            # when the backend isolates tasks in child processes.
            state["inject"] = "worker" if backend.isolated else "inline"
        outcome = backend.map(
            _shard_task,
            state,
            range(len(shards)),
            workers=effective,
            policy=self.supervision,
        )
        sup = self.stats["supervision"]
        sup["retries"] += outcome.retries
        kind_keys = {"crash": "crashes", "hang": "hangs",
                     "exception": "exceptions"}
        for event in outcome.events:
            key = kind_keys.get(event["kind"])
            if key:
                sup[key] += 1
        shard_rows: List[Dict[str, Any]] = []
        report_lists: List[List[CoverageReport]] = []
        for index in range(len(shards)):
            result = outcome.results.get(index)
            if result is not None:
                _, report, counters, elapsed = result
                # Telemetry fold-back contract: counters captured outside
                # this capture context (another process or thread) only
                # exist in the returned dict — replay them here.  The
                # inline backend's tasks tee directly into our sink, so
                # replaying there would double-count.
                if backend.replays_counters:
                    for name, value in counters.items():
                        telemetry.incr(name, value)
                shard_rows.append(
                    {"shard": index, "faults": len(shards[index]),
                     "duration_s": elapsed, "counters": counters}
                )
                report_lists.append([report])
                continue
            failure = outcome.failed[index]
            report_lists.append(
                self._resolve_failed_shard(state, index, failure, shard_rows)
            )
        return shard_rows, report_lists

    def _run_inprocess(
        self, state: Dict[str, Any], shards: List[List[Fault]]
    ) -> Tuple[List[Dict[str, Any]], List[List[CoverageReport]]]:
        """Shard/merge path without workers (fork unavailable etc.).

        Shard telemetry tees straight into the active sink as each
        shard runs in this process, so — unlike the fork path — its
        counters are *not* replayed afterwards (that would double-count
        them).
        """
        shard_rows: List[Dict[str, Any]] = []
        report_lists: List[List[CoverageReport]] = []
        for index in range(len(shards)):
            try:
                _, report, counters, elapsed = _execute_shard(state, index)
            except Exception as exc:
                report_lists.append(
                    self._apply_failure_policy(state, index, exc, attempts=1)
                )
                continue
            shard_rows.append(
                {"shard": index, "faults": len(shards[index]),
                 "duration_s": elapsed, "counters": counters}
            )
            report_lists.append([report])
        return shard_rows, report_lists

    def _resolve_failed_shard(
        self,
        state: Dict[str, Any],
        index: int,
        failure: Any,
        shard_rows: List[Dict[str, Any]],
    ) -> List[CoverageReport]:
        """A shard exhausted its worker retries: fall back in-process.

        Transient worker faults (crash/hang/injected exceptions) cannot
        follow the shard here — the fallback runs chaos-free in the
        parent — so its result is the fault-free one and the run stays
        bit-identical.  If the shard *still* fails the failure is
        deterministic and the :class:`FailurePolicy` decides.
        """
        telemetry.incr("resilience.fallback_inprocess")
        self._record_fallback("supervision", shard=index)
        try:
            _, report, counters, elapsed = _execute_shard(state, index)
        except Exception as exc:
            return self._apply_failure_policy(
                state, index, exc, attempts=failure.attempts + 1
            )
        shard_rows.append(
            {"shard": index, "faults": len(state["shards"][index]),
             "duration_s": elapsed, "counters": counters}
        )
        return [report]

    def _apply_failure_policy(
        self, state: Dict[str, Any], index: int, exc: Exception, attempts: int
    ) -> List[CoverageReport]:
        """Deterministic shard failure: raise, degrade, or quarantine."""
        shard = state["shards"][index]
        if self.failure_policy is FailurePolicy.RAISE:
            raise exc
        if self.failure_policy is FailurePolicy.DEGRADE:
            record = failure_record(
                f"shard:{index}", exc, attempts, "degrade",
                detail={"shard": index, "faults": [f.name for f in shard]},
            )
            self._record_failure(record, len(shard))
            return []
        reports, poisoned = self._bisect_shard(state, shard)
        record = failure_record(
            f"shard:{index}", exc, attempts, "quarantine",
            detail={
                "shard": index,
                "faults": [fault.name for fault, _ in poisoned],
                "errors": sorted({type(e).__name__ for _, e in poisoned}),
            },
        )
        self._record_failure(record, len(poisoned))
        return reports

    def _bisect_shard(
        self, state: Dict[str, Any], faults: List[Fault]
    ) -> Tuple[List[CoverageReport], List[Tuple[Fault, Exception]]]:
        """Narrow a deterministically failing shard to its bad faults.

        Classic delta-debugging bisection: run the subset in-process;
        on failure split it and recurse, down to singletons.  Returns
        the passing sub-reports *in fault-list order* (so the fault-axis
        merge preserves ordering) plus the poisoned faults.
        """
        telemetry.incr("resilience.bisect_runs")
        try:
            report = self._run_fault_subset(state, faults)
        except Exception as exc:
            if len(faults) == 1:
                return [], [(faults[0], exc)]
            mid = len(faults) // 2
            left_reports, left_poisoned = self._bisect_shard(state, faults[:mid])
            right_reports, right_poisoned = self._bisect_shard(state, faults[mid:])
            return left_reports + right_reports, left_poisoned + right_poisoned
        return [report], []

    def _run_fault_subset(
        self, state: Dict[str, Any], faults: List[Fault]
    ) -> CoverageReport:
        chaos: Optional[ChaosConfig] = state.get("chaos")
        if chaos is not None:
            chaos.check_poison_faults(faults)
        simulator = _build_simulator(
            state["circuit"], state["engine"], faults, state["engine_kwargs"]
        )
        return simulator.run(state["patterns"], **state["run_kwargs"])

    def _record_fallback(self, reason: str, shard: Optional[int] = None) -> None:
        """Count and remember one in-process fallback (never silent)."""
        telemetry.incr("faultsim.sharded.fallback")
        self.stats["fallbacks"].append({"reason": reason, "shard": shard})
        if reason == "supervision":
            self.stats["supervision"]["fallbacks"] += 1

    def _record_failure(self, record: FailureRecord, fault_count: int) -> None:
        self.failures.append(record)
        telemetry.incr("resilience.shard_failures")
        telemetry.incr("resilience.quarantined_faults", fault_count)

    def _record_run(
        self, mode: str, effective: int, shard_rows: List[Dict[str, Any]]
    ) -> None:
        """Fold one run's per-shard stats into the manifest section."""
        stats = self.stats
        stats["runs"] += 1
        stats["mode"] = mode
        stats["effective"] = max(stats["effective"], effective)
        by_shard = {row["shard"]: row for row in stats["shards"]}
        for row in shard_rows:
            existing = by_shard.get(row["shard"])
            if existing is None:
                stats["shards"].append(
                    {
                        "shard": row["shard"],
                        "faults": row["faults"],
                        "duration_s": row["duration_s"],
                        "counters": dict(row["counters"]),
                    }
                )
                by_shard[row["shard"]] = stats["shards"][-1]
            else:
                existing["duration_s"] += row["duration_s"]
                for name, value in row["counters"].items():
                    existing["counters"][name] = (
                        existing["counters"].get(name, 0) + value
                    )

    def workers_section(self) -> Dict[str, Any]:
        """JSON-safe copy of the accumulated manifest ``workers`` section."""
        return {
            "requested": self.stats["requested"],
            "effective": self.stats["effective"],
            "mode": self.stats["mode"],
            "backend": self.stats["backend"],
            "reason": self.stats["reason"],
            "runs": self.stats["runs"],
            "fallbacks": [dict(row) for row in self.stats["fallbacks"]],
            "supervision": dict(self.stats["supervision"]),
            "shards": [
                {
                    "shard": row["shard"],
                    "faults": row["faults"],
                    "duration_s": row["duration_s"],
                    "counters": dict(row["counters"]),
                }
                for row in self.stats["shards"]
            ],
        }

    def failures_section(self) -> Optional[List[Dict[str, Any]]]:
        """Manifest-ready ``failures`` rows, or None when nothing failed."""
        if not self.failures:
            return None
        return [record.to_dict() for record in self.failures]


def sharded_coverage(
    circuit: Circuit,
    patterns: Sequence[Pattern],
    engine: Union[str, Any] = "parallel_pattern",
    faults: Optional[Sequence[Any]] = None,
    collapse: bool = True,
    workers: int = 1,
    shards: Optional[int] = None,
    supervision: Optional[SupervisionPolicy] = None,
    failure_policy: Union[str, FailurePolicy] = FailurePolicy.RAISE,
    chaos: Optional[ChaosConfig] = None,
    fault_model: Union[str, FaultModel] = FaultModel.STUCK_AT,
    backend: Union[None, str, ExecutorBackend] = None,
    **engine_kwargs: Any,
) -> CoverageReport:
    """One-call sharded fault simulation (mirrors ``engine_coverage``)."""
    simulator = ShardedFaultSimulator(
        circuit,
        engine,
        faults=faults,
        collapse=collapse,
        workers=workers,
        shards=shards,
        supervision=supervision,
        failure_policy=failure_policy,
        chaos=chaos,
        fault_model=fault_model,
        backend=backend,
        **engine_kwargs,
    )
    try:
        return simulator.run(patterns)
    finally:
        simulator.close()
