"""The execution-backend contract (repro.exec.backends).

Every backend must behave identically from the caller's seat: same
results for the same tasks, the same ``SupervisionOutcome`` shape for
retries and permanent failures, and the documented telemetry fold-back
rule.  Where a capability genuinely differs (deadlines, crash
isolation, state shipping), the backend-specific classes below pin the
difference explicitly.

Spawn tests use module-level task functions — under ``spawn`` the
``(task_fn, payload)`` pair is pickled and shipped to a fresh
interpreter, so closures would not survive the trip.
"""

import os
import pickle
import threading
import time

import pytest

from repro import telemetry
from repro.exec import (
    BACKENDS,
    ForkBackend,
    InlineBackend,
    SpawnBackend,
    ThreadLaneBackend,
    auto_backend,
    create_backend,
)
from repro.resilience import RetryPolicy
from repro.resilience.supervisor import SupervisionPolicy


# ----------------------------------------------------------------------
# Module-level task functions (spawn must be able to pickle them)
# ----------------------------------------------------------------------
def _scale(payload, task, attempt):
    return payload * task


def _flaky(payload, task, attempt):
    """Fail the first ``payload`` attempts, then succeed."""
    if attempt < payload:
        raise ValueError(f"attempt {attempt} refused")
    return (task, attempt)


def _boom(payload, task, attempt):
    raise RuntimeError(f"boom on {task}")


def _sleepy(payload, task, attempt):
    time.sleep(payload)
    return task


def _crash_once(payload, task, attempt):
    """Hard-exit the worker process on the first attempt."""
    if attempt == 0:
        os._exit(23)
    return task


def _payload_size(payload, task, attempt):
    return len(payload["big"])


def _count_and_return(payload, task, attempt):
    """Capture own telemetry and return it (the fold-back contract)."""
    with telemetry.capture() as session:
        telemetry.incr("exec_test.task_ran")
        counters = dict(session.counters)
    return task, counters


def _policy(retries=0, timeout_s=None):
    return SupervisionPolicy(
        timeout_s=timeout_s,
        retry=RetryPolicy(max_retries=retries, base_delay_s=0.01,
                          max_delay_s=0.02),
    )


def make_backend(name):
    backend = create_backend(name)
    if not type(backend).available():
        pytest.skip(f"backend {name} unavailable on this platform")
    return backend


# ----------------------------------------------------------------------
# The shared contract, parametrized over every backend
# ----------------------------------------------------------------------
class TestContract:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("workers", (1, 3))
    def test_map_runs_every_task(self, name, workers):
        with make_backend(name) as backend:
            outcome = backend.map(
                _scale, 10, range(7), workers=workers, policy=_policy()
            )
        assert outcome.failed == {}
        assert outcome.results == {task: 10 * task for task in range(7)}

    @pytest.mark.parametrize("name", BACKENDS)
    def test_map_empty_task_list(self, name):
        with make_backend(name) as backend:
            outcome = backend.map(_scale, 1, [], workers=2, policy=_policy())
        assert outcome.results == {} and outcome.failed == {}

    @pytest.mark.parametrize("name", BACKENDS)
    def test_retries_then_succeeds(self, name):
        with make_backend(name) as backend:
            outcome = backend.map(
                _flaky, 1, [5], workers=1, policy=_policy(retries=2)
            )
        assert outcome.failed == {}
        assert outcome.results == {5: (5, 1)}  # succeeded on attempt 1
        assert outcome.retries == 1
        assert [e["action"] for e in outcome.events] == ["retry"]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_exhausted_retries_fail_with_supervisor_shape(self, name):
        with make_backend(name) as backend:
            outcome = backend.map(
                _boom, None, ["bad"], workers=1, policy=_policy(retries=1)
            )
        assert outcome.results == {}
        failure = outcome.failed["bad"]
        assert failure.kind == "exception"
        assert failure.error == "RuntimeError"
        assert "boom on bad" in failure.message
        assert failure.attempts == 2
        assert [e["action"] for e in outcome.events] == ["retry", "gave_up"]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_failures_are_counted_in_telemetry(self, name):
        with telemetry.capture() as session:
            with make_backend(name) as backend:
                backend.map(
                    _boom, None, [0], workers=1, policy=_policy(retries=1)
                )
        assert session.counters["resilience.worker_exception"] == 2
        assert session.counters["resilience.retry"] == 1


# ----------------------------------------------------------------------
# Capability differences, pinned per backend
# ----------------------------------------------------------------------
class TestDeadlines:
    @pytest.mark.parametrize("name", ("fork", "spawn", "thread-lane"))
    def test_hang_is_detected_and_classified(self, name):
        with make_backend(name) as backend:
            outcome = backend.map(
                _sleepy, 30.0, ["hung"], workers=1,
                policy=_policy(timeout_s=0.3),
            )
        failure = outcome.failed["hung"]
        assert failure.kind == "hang"
        assert failure.error == "WorkerHang"

    def test_inline_ignores_deadline(self):
        # Inline cannot interrupt its own thread; the task just runs.
        with InlineBackend() as backend:
            outcome = backend.map(
                _sleepy, 0.05, ["t"], workers=1, policy=_policy(timeout_s=0.01)
            )
        assert outcome.results == {"t": "t"}


class TestIsolation:
    @pytest.mark.parametrize("name", ("fork", "spawn"))
    def test_worker_crash_is_contained_and_retried(self, name):
        with make_backend(name) as backend:
            outcome = backend.map(
                _crash_once, None, ["x"], workers=1, policy=_policy(retries=1)
            )
        assert outcome.results == {"x": "x"}
        assert outcome.events[0]["kind"] == "crash"

    @pytest.mark.parametrize("name", ("fork", "spawn"))
    def test_crash_without_retry_budget_fails(self, name):
        with make_backend(name) as backend:
            outcome = backend.map(
                _crash_once, None, ["x"], workers=1, policy=_policy(retries=0)
            )
        assert outcome.failed["x"].kind == "crash"

    @pytest.mark.parametrize("name", ("fork", "spawn"))
    def test_crash_failure_reports_exit_code(self, name):
        with make_backend(name) as backend:
            outcome = backend.map(
                _crash_once, None, ["x"], workers=1, policy=_policy(retries=0)
            )
        failure = outcome.failed["x"]
        assert failure.error == "WorkerCrash"
        assert "code 23" in failure.message

    def test_fork_payload_reaches_child_unpickled(self):
        # Fork ships state by inheritance: a payload that cannot pickle
        # (it holds a lock) still reaches the child.
        payload = {"lock": threading.Lock(), "big": list(range(100))}
        with pytest.raises(TypeError):
            pickle.dumps(payload)
        with make_backend("fork") as backend:
            outcome = backend.map(
                _payload_size, payload, [0], workers=1, policy=_policy()
            )
        assert outcome.results == {0: 100}


class TestSpawnStateShipping:
    def test_workers_persist_and_state_ships_once_per_key(self):
        with SpawnBackend() as backend:
            first = backend.map(_scale, 3, [1, 2], workers=2,
                                policy=_policy())
            assert first.results == {1: 3, 2: 6}
            workers_after_first = list(backend._workers)
            # Same (task_fn, payload) -> same content key: no re-ship,
            # same persistent workers.
            second = backend.map(_scale, 3, [4], workers=2, policy=_policy())
            assert second.results == {4: 12}
            assert backend._workers[0] in workers_after_first
            assert all(len(w.keys) == 1 for w in backend._workers)
            # Different payload -> a second key on the worker that ran it.
            third = backend.map(_scale, 5, [4], workers=1, policy=_policy())
            assert third.results == {4: 20}
            assert any(len(w.keys) == 2 for w in backend._workers)

    def test_crashed_worker_is_replaced_and_state_reshipped(self):
        with SpawnBackend() as backend:
            outcome = backend.map(
                _crash_once, None, ["t"], workers=1, policy=_policy(retries=1)
            )
            assert outcome.results == {"t": "t"}
            # The replacement worker is alive and holds the state key.
            assert len(backend._workers) == 1
            assert backend._workers[0].process.is_alive()

    def test_close_is_idempotent_and_stops_workers(self):
        backend = SpawnBackend()
        backend.map(_scale, 1, [1], workers=1, policy=_policy())
        workers = list(backend._workers)
        backend.close()
        backend.close()
        assert backend._workers == []
        assert all(not w.process.is_alive() for w in workers)


class TestTelemetryFoldBack:
    def test_inline_tees_directly_and_must_not_be_replayed(self):
        backend = InlineBackend()
        assert backend.replays_counters is False
        with telemetry.capture() as session:
            backend.map(_count_and_return, None, [0], policy=_policy())
            counters = dict(session.counters)
        # The task's incr landed in the caller's session via the tee.
        assert counters["exec_test.task_ran"] == 1

    def test_thread_lane_counters_come_back_with_the_result(self):
        backend = ThreadLaneBackend()
        assert backend.replays_counters is True
        with telemetry.capture() as session:
            outcome = backend.map(
                _count_and_return, None, [0], policy=_policy()
            )
            caller_counters = dict(session.counters)
        # The pool thread ran outside the caller's contextvar capture:
        # nothing teed into the session...
        assert "exec_test.task_ran" not in caller_counters
        # ...but the task captured its own counters and returned them
        # for the caller to replay.
        _, returned = outcome.results[0]
        assert returned["exec_test.task_ran"] == 1

    @pytest.mark.parametrize("name", ("fork", "spawn"))
    def test_process_backends_return_child_counters(self, name):
        with make_backend(name) as backend:
            assert backend.replays_counters is True
            outcome = backend.map(
                _count_and_return, None, [0], policy=_policy()
            )
        _, returned = outcome.results[0]
        assert returned["exec_test.task_ran"] == 1


# ----------------------------------------------------------------------
# Registry / selection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_create_backend_resolves_names_and_aliases(self):
        assert isinstance(create_backend("inline"), InlineBackend)
        assert isinstance(create_backend("fork"), ForkBackend)
        assert isinstance(create_backend("spawn"), SpawnBackend)
        assert isinstance(create_backend("thread-lane"), ThreadLaneBackend)
        assert isinstance(create_backend("thread"), ThreadLaneBackend)
        assert isinstance(create_backend("THREAD_LANE"), ThreadLaneBackend)

    def test_instance_passes_through(self):
        backend = InlineBackend()
        assert create_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("carrier-pigeon")

    def test_auto_backend_prefers_fork(self, monkeypatch):
        if ForkBackend.available():
            assert isinstance(auto_backend(), ForkBackend)
        monkeypatch.setattr(ForkBackend, "available", classmethod(
            lambda cls: False
        ))
        assert isinstance(auto_backend(), SpawnBackend)
