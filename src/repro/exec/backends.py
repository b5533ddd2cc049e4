"""Pluggable execution backends: inline, fork, spawn, thread-lane.

One interface, :class:`ExecutorBackend`, behind every way this repo
runs units of work in parallel — the sharded fault simulator, the
campaign runner and the service's execution lanes all go through it,
and a platform without ``fork`` gets a spawn pool instead of silently
degrading to in-process execution.

The contract every backend implements:

* ``map(task_fn, payload, tasks, workers=, policy=)`` — run
  ``task_fn(payload, task, attempt)`` for every task, at most
  ``workers`` at a time, retrying failed attempts per
  ``policy.retry`` with jittered backoff and enforcing
  ``policy.timeout_s`` as a per-attempt deadline where the backend can
  (see the matrix below).  Every backend settles a failed attempt
  through the one retry rule, :func:`_settle_failure`, and returns a
  :class:`~repro.resilience.SupervisionOutcome`, so callers keep one
  failure-handling path regardless of backend.
* **State shipping** — ``payload`` is how per-run state (circuit,
  patterns, fault shards) reaches the workers.  ``inline`` and
  ``thread-lane`` pass it by reference; ``fork`` ships it by fork
  inheritance (never pickled); ``spawn`` pickles ``(task_fn,
  payload)`` once per map, addresses the blob by its SHA-256 content
  key, and ships it to each persistent worker at most once — a worker
  that already holds the key runs tasks without re-shipping (the same
  content-address idea as the result store's ``cache_key``).  Under
  ``spawn``, ``task_fn`` must be a module-level importable callable
  and ``payload`` must pickle.
* **Telemetry fold-back** — work that runs outside the caller's
  :func:`repro.telemetry.capture` context (another process *or*
  another thread: capture state is a :class:`contextvars.ContextVar`
  that new threads do not inherit) accumulates counters the caller's
  session never sees.  Such a ``task_fn`` must capture its own
  telemetry and return the counters with its result; the caller
  replays them into its sink exactly when
  :attr:`ExecutorBackend.replays_counters` is True.  ``inline`` is the
  only backend whose tasks tee straight into the caller's capture
  (replaying there would double-count).

Capability matrix:

============  =========  ===========  ==================  ===============
backend       isolated   deadlines    replays_counters    best for
============  =========  ===========  ==================  ===============
inline        no         no           no                  workers=1, debugging
fork          yes        kill child   yes                 CPU-bound, POSIX
spawn         yes        kill worker  yes                 CPU-bound, any platform
thread-lane   no         abandon      yes                 store-hit / I/O-bound
============  =========  ===========  ==================  ===============

``isolated`` backends run tasks in a child process, so a crashing or
hanging task cannot take the caller down (and the chaos harness may
inject real ``os._exit`` crashes there).  ``fork`` runs one fresh
forked child per attempt; ``spawn`` keeps persistent workers.  Both
watch their children's result pipes the same way (:func:`_watch`: a
message is a result, EOF a crash, a passed deadline a hang).
``thread-lane`` cannot kill a running thread: a task past its deadline
is *abandoned* (it may still run to completion into the void) and
retried per policy — fine for the I/O-bound service work it exists
for, wrong for tasks with side effects that must not run twice.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import wait as _futures_wait
from multiprocessing import connection
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..resilience.policy import traceback_digest
from ..resilience.supervisor import (
    CRASH,
    EXCEPTION,
    HANG,
    OK,
    SupervisionOutcome,
    SupervisionPolicy,
    TaskFailure,
)

__all__ = [
    "BACKENDS",
    "ExecutorBackend",
    "InlineBackend",
    "ForkBackend",
    "SpawnBackend",
    "ThreadLaneBackend",
    "create_backend",
    "auto_backend",
]

#: Canonical backend names, in auto-selection preference order for
#: process work (``thread-lane`` is never auto-picked for CPU work).
BACKENDS = ("fork", "spawn", "inline", "thread-lane")

#: ``task_fn(payload, task, attempt) -> result``
TaskFn = Callable[[Any, Any, int], Any]

#: How often a supervising loop wakes to check deadlines.
_POLL_INTERVAL_S = 0.05

#: Grace a terminated (hung) worker gets before SIGKILL, and for joins.
_TERM_GRACE_S = 5.0


def _deadline(policy: SupervisionPolicy) -> Optional[float]:
    """Monotonic deadline of an attempt starting now (None: no limit)."""
    if policy.timeout_s is None:
        return None
    return time.monotonic() + policy.timeout_s


def _settle_failure(
    outcome: SupervisionOutcome,
    policy: SupervisionPolicy,
    pending: List[Tuple[Any, int]],
    task: Any,
    attempt: int,
    kind: str,
    error: str,
    message: str,
    digest: str,
) -> None:
    """One failed attempt: count it, then retry or fail the task.

    The single retry rule of every backend — same telemetry counters,
    same event rows, same :class:`TaskFailure` shape — so every
    backend's failures look identical to callers.
    """
    telemetry.incr(f"resilience.worker_{kind}")
    retry = policy.retry
    if attempt < retry.max_retries:
        telemetry.incr("resilience.retry")
        outcome.retries += 1
        delay = retry.wait(f"task:{task}", attempt)
        outcome.events.append(
            {"task": task, "attempt": attempt, "kind": kind,
             "error": error, "action": "retry", "delay_s": delay}
        )
        pending.append((task, attempt + 1))
    else:
        outcome.events.append(
            {"task": task, "attempt": attempt, "kind": kind,
             "error": error, "action": "gave_up", "delay_s": 0.0}
        )
        outcome.failed[task] = TaskFailure(
            task=task, kind=kind, error=error, message=message,
            digest=digest, attempts=attempt + 1,
        )


def _run_attempt(task_fn: TaskFn, payload: Any, task: Any,
                 attempt: int) -> tuple:
    """Run one attempt in a worker; the message it sends back."""
    try:
        return (OK, task_fn(payload, task, attempt))
    except BaseException as exc:  # noqa: BLE001 — everything must travel back
        return (EXCEPTION, type(exc).__name__, str(exc), traceback_digest(exc))


def _stop(process: Any, kill: bool) -> None:
    """Join a worker process; terminate (then kill) it first if ``kill``."""
    if kill and process.is_alive():
        process.terminate()
        process.join(_TERM_GRACE_S)
        if process.is_alive():
            process.kill()
    process.join(_TERM_GRACE_S)


def _watch(
    busy: Dict[Any, Any],
    outcome: SupervisionOutcome,
    policy: SupervisionPolicy,
    pending: List[Tuple[Any, int]],
    release: Callable[[Any, str], None],
) -> None:
    """One supervision step over the result pipes of running attempts.

    ``busy`` maps each pipe to its attempt (``process``, ``task``,
    ``attempt``, ``deadline``).  A ready pipe carries the worker's
    :func:`_run_attempt` message; EOF on it is a crash; a passed
    deadline is a hang.  A finished attempt leaves ``busy``, goes to
    ``release(entry, kind)`` — the backend disposes of its worker, so a
    crashed one has its exit code — and then settles into ``outcome``.
    """
    ready = connection.wait(list(busy), timeout=_POLL_INTERVAL_S)
    now = time.monotonic()
    for conn, entry in list(busy.items()):
        if conn in ready:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = (CRASH,)
        elif entry.deadline is not None and now >= entry.deadline:
            message = (HANG,)
        else:
            continue
        del busy[conn]
        kind = message[0]
        release(entry, kind)
        if kind == OK:
            outcome.results[entry.task] = message[1]
        elif kind == EXCEPTION:
            _settle_failure(
                outcome, policy, pending, entry.task, entry.attempt, *message
            )
        elif kind == CRASH:
            _settle_failure(
                outcome, policy, pending, entry.task, entry.attempt, CRASH,
                "WorkerCrash",
                f"worker exited with code {entry.process.exitcode} before "
                f"returning a result", "",
            )
        else:
            _settle_failure(
                outcome, policy, pending, entry.task, entry.attempt, HANG,
                "WorkerHang",
                f"no result within {policy.timeout_s}s (worker terminated)",
                "",
            )


class ExecutorBackend:
    """Interface every execution backend implements (see module doc)."""

    #: Canonical name, recorded in manifests' ``workers.backend``.
    name: str = "abstract"
    #: Tasks run in a child process (crash/hang cannot hurt the caller;
    #: worker-kind chaos injection is safe).
    isolated: bool = False
    #: Telemetry fold-back contract: True when the caller must replay
    #: the counters a task returned (work ran outside the caller's
    #: capture context); False when capture tee already delivered them.
    replays_counters: bool = True

    @classmethod
    def available(cls) -> bool:
        """Can this backend run on this platform?"""
        return True

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        """Run every task, supervised; see the module contract."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any persistent workers (idempotent)."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class InlineBackend(ExecutorBackend):
    """Sequential in-process execution: the workers=1 reference path.

    Tasks run in the calling thread under the caller's own telemetry
    capture (tee delivers counters directly — nothing to replay).
    Deadlines are unenforceable — a task cannot be interrupted in its
    own thread — so ``policy.timeout_s`` is ignored; retries and
    failure classification still match the other backends.
    """

    name = "inline"
    isolated = False
    replays_counters = False

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        policy = policy or SupervisionPolicy()
        outcome = SupervisionOutcome(results={}, failed={})
        pending: List[Tuple[Any, int]] = [(task, 0) for task in tasks]
        while pending:
            task, attempt = pending.pop(0)
            try:
                outcome.results[task] = task_fn(payload, task, attempt)
            except Exception as exc:
                _settle_failure(
                    outcome, policy, pending, task, attempt, EXCEPTION,
                    type(exc).__name__, str(exc), traceback_digest(exc),
                )
        return outcome


def _fork_child_main(conn: Any, task_fn: TaskFn, payload: Any, task: Any,
                     attempt: int) -> None:
    """Forked-child entry: run one attempt, ship the outcome, exit hard.

    ``os._exit`` (not ``sys.exit``) keeps the forked child from
    flushing inherited stdio buffers or running the parent's atexit
    hooks twice.
    """
    telemetry.reset_in_child()
    try:
        conn.send(_run_attempt(task_fn, payload, task, attempt))
        conn.close()
    finally:
        os._exit(0)


class _Worker:
    """One worker process, its pipe, and the attempt it is running.

    ``keys`` are the state keys a persistent spawn worker holds.
    """

    __slots__ = ("process", "conn", "keys", "task", "attempt", "deadline")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn
        self.keys: set = set()
        self.task: Any = None
        self.attempt = 0
        self.deadline: Optional[float] = None


class ForkBackend(ExecutorBackend):
    """One forked child per task attempt.

    State reaches children by fork inheritance — ``task_fn`` and
    ``payload`` are never pickled, only the result is; crashes and
    hangs are detected on the result pipe, hung children are killed.
    POSIX only.
    """

    name = "fork"
    isolated = True
    replays_counters = True

    @classmethod
    def available(cls) -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        policy = policy or SupervisionPolicy()
        outcome = SupervisionOutcome(results={}, failed={})
        context = multiprocessing.get_context("fork")
        pending: List[Tuple[Any, int]] = [(task, 0) for task in tasks]
        busy: Dict[Any, _Worker] = {}

        def release(entry: _Worker, kind: str) -> None:
            _stop(entry.process, kill=kind == HANG)
            entry.conn.close()

        try:
            while pending or busy:
                while pending and len(busy) < max(1, workers):
                    task, attempt = pending.pop(0)
                    parent_conn, child_conn = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_fork_child_main,
                        args=(child_conn, task_fn, payload, task, attempt),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    entry = busy[parent_conn] = _Worker(process, parent_conn)
                    entry.task, entry.attempt = task, attempt
                    entry.deadline = _deadline(policy)
                _watch(busy, outcome, policy, pending, release)
        finally:
            # Never leak children, e.g. when the caller is interrupted.
            for entry in busy.values():
                release(entry, HANG)
        return outcome


def _spawn_worker_main(conn: Any) -> None:
    """Persistent spawn-worker loop: cache shipped state, run tasks.

    Messages in: ``("state", key, blob)``, ``("task", key, task,
    attempt)``, ``("stop",)``.  Messages out: ``(OK, result)`` or
    ``(EXCEPTION, error, message, digest)`` per task.  EOF on the pipe
    (parent died or gave up on us) ends the loop.
    """
    telemetry.reset_in_child()
    cache: Dict[str, Any] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "state":
                cache[message[1]] = pickle.loads(message[2])
            elif op == "task":
                key, task, attempt = message[1], message[2], message[3]
                entry = cache.get(key)
                if entry is None:
                    conn.send((
                        EXCEPTION, "StaleStateError",
                        f"worker holds no state for key {key[:12]}", "",
                    ))
                    continue
                fn, payload = entry
                conn.send(_run_attempt(fn, payload, task, attempt))
            elif op == "stop":
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass
        os._exit(0)


class SpawnBackend(ExecutorBackend):
    """Persistent spawn workers; state content-addressed and cached.

    Each worker is a fresh interpreter (nothing inherited), so
    ``(task_fn, payload)`` is pickled once per :meth:`map`, keyed by
    the blob's SHA-256, and shipped to a worker only if it does not
    already hold that key — workers persist across ``map`` calls on
    the same backend instance, so repeated runs over the same state
    (a simulator's verify/grade/sign-off passes, a service executing
    many cells of one campaign) ship it once.  Supervision matches the
    fork backend: EOF on a worker's pipe is a crash, a missed deadline
    kills and replaces the worker, both retry per policy.
    """

    name = "spawn"
    isolated = True
    replays_counters = True

    def __init__(self) -> None:
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()

    @classmethod
    def available(cls) -> bool:
        return "spawn" in multiprocessing.get_all_start_methods()

    # -- worker lifecycle ----------------------------------------------
    def _spawn_one(self) -> _Worker:
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_spawn_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        return worker

    def _discard(self, worker: _Worker, kill: bool) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        _stop(worker.process, kill)

    def _release(self, worker: _Worker, kind: str) -> None:
        """A finished attempt's worker: kept unless it crashed or hung."""
        if kind in (CRASH, HANG):
            self._discard(worker, kill=kind == HANG)

    def close(self) -> None:
        with self._lock:
            for worker in list(self._workers):
                try:
                    worker.conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
            for worker in list(self._workers):
                self._discard(worker, kill=True)

    # -- supervised map ------------------------------------------------
    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        policy = policy or SupervisionPolicy()
        outcome = SupervisionOutcome(results={}, failed={})
        tasks = list(tasks)
        if not tasks:
            return outcome
        with self._lock:
            self._map_locked(
                task_fn, payload, tasks, max(1, workers), policy, outcome
            )
        return outcome

    def _map_locked(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: List[Any],
        cap: int,
        policy: SupervisionPolicy,
        outcome: SupervisionOutcome,
    ) -> None:
        blob = pickle.dumps(
            (task_fn, payload), protocol=pickle.HIGHEST_PROTOCOL
        )
        state_key = hashlib.sha256(blob).hexdigest()
        pending: List[Tuple[Any, int]] = [(task, 0) for task in tasks]
        busy: Dict[Any, _Worker] = {}
        while pending or busy:
            target = min(cap, len(pending) + len(busy))
            while len(self._workers) < target:
                self._spawn_one()
            idle = [w for w in self._workers if w.conn not in busy]
            while pending and idle and len(busy) < cap:
                worker = idle.pop(0)
                task, attempt = pending.pop(0)
                try:
                    if state_key not in worker.keys:
                        worker.conn.send(("state", state_key, blob))
                        worker.keys.add(state_key)
                    worker.conn.send(("task", state_key, task, attempt))
                except (OSError, BrokenPipeError):
                    # Died between tasks; requeue and replace next pass.
                    self._discard(worker, kill=True)
                    pending.insert(0, (task, attempt))
                    break
                worker.task, worker.attempt = task, attempt
                worker.deadline = _deadline(policy)
                busy[worker.conn] = worker
            if busy:
                _watch(busy, outcome, policy, pending, self._release)


class ThreadLaneBackend(ExecutorBackend):
    """Thread-pool execution for store-hit-heavy and I/O-bound work.

    Pure-Python CPU-bound tasks gain nothing here (the GIL); tasks
    that wait — on disk, sockets, or child processes — overlap fully.
    A new thread starts outside the caller's contextvar capture, so
    counters a task captured come back with its result and the caller
    replays them (``replays_counters``).  A task past its deadline is
    *abandoned*, not killed (Python threads are uninterruptible): it
    may still complete into the void while its retry runs, so tasks
    must be idempotent — which store-first service work is.
    """

    name = "thread-lane"
    isolated = False
    replays_counters = True

    def map(
        self,
        task_fn: TaskFn,
        payload: Any,
        tasks: Iterable[Any],
        *,
        workers: int = 1,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SupervisionOutcome:
        policy = policy or SupervisionPolicy()
        outcome = SupervisionOutcome(results={}, failed={})
        tasks = list(tasks)
        if not tasks:
            return outcome
        cap = max(1, workers)
        pending: List[Tuple[Any, int]] = [(task, 0) for task in tasks]
        running: Dict[Any, Tuple[Any, int, Optional[float]]] = {}
        pool = ThreadPoolExecutor(
            max_workers=cap, thread_name_prefix="repro-exec-lane"
        )
        try:
            while pending or running:
                while pending and len(running) < cap:
                    task, attempt = pending.pop(0)
                    future = pool.submit(task_fn, payload, task, attempt)
                    running[future] = (task, attempt, _deadline(policy))
                done, _ = _futures_wait(
                    set(running), timeout=_POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future in list(running):
                    task, attempt, deadline = running[future]
                    if future in done:
                        del running[future]
                        try:
                            outcome.results[task] = future.result()
                        except Exception as exc:
                            _settle_failure(
                                outcome, policy, pending, task, attempt,
                                EXCEPTION, type(exc).__name__, str(exc),
                                traceback_digest(exc),
                            )
                    elif deadline is not None and now >= deadline:
                        del running[future]
                        future.cancel()
                        _settle_failure(
                            outcome, policy, pending, task, attempt, HANG,
                            "WorkerHang",
                            f"no result within {policy.timeout_s}s "
                            f"(thread abandoned)", "",
                        )
        finally:
            # Abandoned (hung) attempts must not block the caller.
            pool.shutdown(wait=not running and len(pending) == 0)
        return outcome


_REGISTRY: Dict[str, type] = {
    "inline": InlineBackend,
    "fork": ForkBackend,
    "spawn": SpawnBackend,
    "thread-lane": ThreadLaneBackend,
    "thread": ThreadLaneBackend,  # convenience alias
}


def auto_backend() -> ExecutorBackend:
    """The default process backend: fork where available, else spawn.

    Fork ships state for free (inheritance); spawn pays one pickle per
    state but runs everywhere — so spawn-only platforms get a real
    pool instead of silently degrading to in-process execution.
    """
    if ForkBackend.available():
        return ForkBackend()
    return SpawnBackend()


def create_backend(
    spec: Union[None, str, ExecutorBackend] = None,
) -> ExecutorBackend:
    """Resolve a backend: an instance passes through, a name constructs
    one, ``None`` auto-selects (:func:`auto_backend`)."""
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None:
        return auto_backend()
    name = str(spec).strip().lower().replace("_", "-")
    cls = _REGISTRY.get(name)
    if cls is None:
        known = sorted(set(BACKENDS))
        raise ValueError(
            f"unknown execution backend {spec!r}; available: {known}"
        )
    return cls()
