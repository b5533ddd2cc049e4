"""Contract suite for :class:`repro.journal.Journal` and its owners.

The job journal (``jobs.jsonl``), the tenant ledger (``tenants.jsonl``)
and the store index (``index.jsonl``) share one append/rotate/replay
implementation, so one suite pins the behaviour for all three:

* round trip, torn lines mid-file and at the tail;
* a torn tail is cut before the next append, so a line written after
  the restart survives the restart after that;
* rotation compacts to a snapshot line, and a kill at every file step
  of a rotation leaves a journal that replays to the acked state;
* a start from ``.1`` alone rotates before its first append, so the
  next restart still has everything;
* an unreadable journal raises; a failed write is counted, keeps the
  in-memory state and never glues onto the next line.

Kills are simulated on disk (copying, truncating and renaming files),
never with real signals.
"""

import builtins
import errno
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.journal as journal_module
from repro.journal import Journal, JournalError
from repro.resilience import corrupt_tail
from repro.service import (
    JOBS_JOURNAL,
    TENANTS_JOURNAL,
    JobJournal,
    JobJournalError,
    TenantLedger,
)
from repro.store import KIND_PATTERNS, LifecyclePolicy, ResultStore

SPEC = {"name": "journal-contract"}


def make_key(index):
    return f"{index:02x}" + "cd" * 19


class JobsOwner:
    """``JobJournal``: one open job per item."""

    filename = JOBS_JOURNAL

    def open(self, root, max_bytes=1 << 20):
        return JobJournal(root, max_bytes=max_bytes)

    def write(self, owner, item):
        owner.record_accepted(f"job-{item:06d}", item, "alice", 0, False, SPEC)

    def journal(self, owner):
        return owner.journal

    def state(self, owner):
        return sorted(owner.open_jobs)

    def expected(self, items):
        return sorted(f"job-{item:06d}" for item in items)


class LedgerOwner:
    """``TenantLedger``: one tenant charged ``item + 1`` bytes per item."""

    filename = TENANTS_JOURNAL

    def open(self, root, max_bytes=1 << 20):
        return TenantLedger(root, max_bytes=max_bytes)

    def write(self, owner, item):
        owner.charge(f"tenant-{item}", item + 1)

    def journal(self, owner):
        return owner.journal

    def state(self, owner):
        return owner.snapshot()

    def expected(self, items):
        return {f"tenant-{item}": item + 1 for item in items}


class IndexOwner:
    """``ResultStore``'s advisory index: one ``put`` line per item.

    The store never replays its index, so its "state" is the set of
    keys whose ``put`` line parses in the current file.
    """

    filename = "index.jsonl"

    def open(self, root, max_bytes=1 << 20):
        return ResultStore(root, LifecyclePolicy(index_max_bytes=max_bytes))

    def write(self, owner, item):
        owner.put(make_key(item), KIND_PATTERNS, [{"a": item}])

    def journal(self, owner):
        return owner.index_journal

    def state(self, owner):
        keys = set()
        path = owner.index_path
        for line in path.read_bytes().split(b"\n") if path.exists() else []:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if entry.get("op") == "put":
                keys.add(entry["key"])
        return keys

    def expected(self, items):
        return {make_key(item) for item in items}


REPLAYING = [JobsOwner(), LedgerOwner()]
ALL = REPLAYING + [IndexOwner()]


def ids(owner):
    return type(owner).__name__


@pytest.fixture
def root(tmp_path):
    return tmp_path / "store"


def fill_until_rotation_due(kind, owner, path, max_bytes, start=0):
    """Write items until the next write must rotate; returns the items."""
    items = []
    while not path.exists() or path.stat().st_size < max_bytes:
        kind.write(owner, start + len(items))
        items.append(start + len(items))
    return items


class HalfWrite:
    """A stream whose write lands half its bytes, then fails (ENOSPC)."""

    def __init__(self, stream):
        self.stream = stream

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stream.close()

    def write(self, data):
        self.stream.write(data[: len(data) // 2])
        self.stream.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def failing_open(partial):
    """An ``open`` whose next append fails (half-written if ``partial``)."""
    armed = [True]

    def fake(file, mode="r", *args, **kwargs):
        if mode == "ab" and armed[0]:
            armed[0] = False
            if not partial:
                raise OSError(errno.ENOSPC, "No space left on device")
            return HalfWrite(builtins.open(file, mode, *args, **kwargs))
        return builtins.open(file, mode, *args, **kwargs)

    return fake


# ----------------------------------------------------------------------
# The primitive itself
# ----------------------------------------------------------------------
class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        journal = Journal(path, "test.log")
        entries = [{"op": "put", "n": n, "text": "é" * n} for n in range(5)]
        for entry in entries:
            assert journal.append(entry)
        reborn = Journal(path, "test.log")
        assert reborn.replay() == entries
        assert (reborn.torn_lines, reborn.rotations) == (0, 0)

    def test_missing_journal_replays_empty(self, tmp_path):
        assert Journal(tmp_path / "absent" / "log.jsonl", "t").replay() == []

    def test_torn_lines_mid_file_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"n": 0}\n{"n": 1, "tor\n[1, 2]\n\n{"n": 2}\n\xff\xfe\n{"n": 3}\n'
        )
        journal = Journal(path, "test.log")
        assert journal.replay() == [{"n": 0}, {"n": 2}, {"n": 3}]
        assert journal.torn_lines == 3

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n": 0}\n{"n": 1}\n{"n": 2, "x"')
        journal = Journal(path, "test.log")
        assert journal.replay() == [{"n": 0}, {"n": 1}]
        assert journal.torn_lines == 1
        assert path.read_bytes() == b'{"n": 0}\n{"n": 1}\n'
        journal.append({"n": 3})
        reborn = Journal(path, "test.log")
        assert reborn.replay() == [{"n": 0}, {"n": 1}, {"n": 3}]
        assert reborn.torn_lines == 0

    def test_first_append_without_replay_cuts_the_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n": 0}\n' + b'{"pad": "' + b"x" * 200_000)
        journal = Journal(path, "test.log")
        journal.append({"n": 1})  # no replay: the append cuts the tail
        assert journal.torn_lines == 1
        assert Journal(path, "test.log").replay() == [{"n": 0}, {"n": 1}]

    def test_rotation_compacts_to_one_snapshot_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        state = {"total": 0}
        journal = Journal(
            path, "test.log", max_bytes=200,
            snapshot=lambda: {"op": "snapshot", "total": state["total"]},
        )
        for _ in range(50):
            journal.append({"op": "add", "n": 1})
            state["total"] += 1
        assert journal.rotations > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "log.jsonl", "log.jsonl.1",
        ]
        assert path.stat().st_size < 200 + 100
        replayed = Journal(path, "test.log").replay()
        assert replayed[0]["op"] == "snapshot"
        total = replayed[0]["total"] + sum(e["n"] for e in replayed[1:])
        assert total == 50

    def test_rotation_failing_between_renames_rotates_again(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "log.jsonl"
        total = {"n": 0}
        journal = Journal(
            path, "test.log", max_bytes=100,
            snapshot=lambda: {"op": "snapshot", "total": total["n"]},
        )

        def add():
            written = journal.append({"op": "add"})
            total["n"] += 1  # memory keeps the charge either way
            return written

        while not path.exists() or path.stat().st_size < 100:
            add()
        real_replace = os.replace

        def fail_install(source, target):
            if str(source).endswith(".tmp"):
                raise OSError(errno.EIO, "Input/output error")
            real_replace(source, target)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", fail_install)
            assert not add()
        assert not path.exists() and journal.rotated.exists()
        assert add()  # rotates again, keeping .1, before appending
        replayed = Journal(path, "test.log").replay()
        assert replayed[0] == {"op": "snapshot", "total": total["n"] - 1}
        assert len(replayed) == 2

    def test_rotation_without_snapshot_is_a_plain_rename(self, tmp_path):
        path = tmp_path / "log.jsonl"
        journal = Journal(path, "test.log", max_bytes=100)
        for n in range(30):
            journal.append({"op": "put", "n": n})
        assert journal.rotations > 0
        for generation in (path, journal.rotated):
            lines = generation.read_text(encoding="utf-8").splitlines()
            assert {json.loads(line)["op"] for line in lines} == {"put"}

    def test_unreadable_journal_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.mkdir()
        with pytest.raises(JournalError, match="log journal"):
            Journal(path, "test.log").replay()

    def test_failed_write_is_counted_and_size_resynced(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "log.jsonl"
        journal = Journal(path, "test.log")
        journal.append({"n": 0})
        monkeypatch.setattr(
            journal_module, "open", failing_open(partial=True), raising=False
        )
        assert not journal.append({"n": 1})
        assert journal.write_failures == 1
        journal.append({"n": 2})
        assert journal.torn_lines == 1  # the half-written line, cut
        assert journal._size == path.stat().st_size
        assert Journal(path, "test.log").replay() == [{"n": 0}, {"n": 2}]

    @pytest.mark.parametrize("max_bytes", [1 << 20, 2048])
    def test_concurrent_appends_lose_no_update(self, tmp_path, max_bytes):
        # The store's index is appended from every lane thread at once.
        path = tmp_path / "log.jsonl"
        journal = Journal(
            path, "test.log", max_bytes=max_bytes,
            snapshot=lambda: {"op": "snapshot"},
        )

        def writer(thread):
            for item in range(200):
                journal.append({"op": "put", "t": thread, "i": item})

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert journal.write_failures == 0
        assert journal._size == path.stat().st_size
        if max_bytes == 1 << 20:
            assert len(Journal(path, "test.log").replay()) == 8 * 200

    def test_service_error_is_the_journal_error(self):
        assert JobJournalError is JournalError


# ----------------------------------------------------------------------
# Every owner, through the same contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ALL, ids=ids)
class TestOwnerAppendPath:
    def test_round_trip(self, kind, root):
        owner = kind.open(root)
        for item in range(5):
            kind.write(owner, item)
        assert kind.state(kind.open(root)) == kind.expected(range(5))

    def test_append_after_torn_tail_restart_survives(self, kind, root):
        owner = kind.open(root)
        kind.write(owner, 0)
        kind.write(owner, 1)
        assert corrupt_tail(root / kind.filename, seed=7)

        restarted = kind.open(root)
        kind.write(restarted, 2)  # acked after the restart...
        # ...so the next restart must still find it: the fragment was
        # cut, not glued onto this line.
        assert kind.state(kind.open(root)) == kind.expected([0, 2])
        assert kind.journal(restarted).torn_lines == 1
        assert (root / kind.filename).read_bytes().endswith(b"\n")

    def test_failed_write_keeps_state_and_next_line_clean(
        self, kind, root, monkeypatch
    ):
        owner = kind.open(root)
        kind.write(owner, 0)
        with monkeypatch.context() as patch:
            patch.setattr(
                journal_module, "open", failing_open(partial=True),
                raising=False,
            )
            kind.write(owner, 1)
        assert kind.journal(owner).write_failures == 1
        if kind in REPLAYING:  # the running owner keeps what it acked
            assert kind.state(owner) == kind.expected([0, 1])
        kind.write(owner, 2)
        assert kind.state(kind.open(root)) == kind.expected([0, 2])


@pytest.mark.parametrize("kind", REPLAYING, ids=ids)
class TestOwnerReplay:
    def test_torn_tail_counted_and_gone_after_restart(self, kind, root):
        owner = kind.open(root)
        for item in range(3):
            kind.write(owner, item)
        assert corrupt_tail(root / kind.filename, seed=3)
        first = kind.open(root)
        assert kind.state(first) == kind.expected([0, 1])
        assert kind.journal(first).torn_lines == 1
        second = kind.open(root)
        assert kind.journal(second).torn_lines == 0

    def test_rotation_compacts_and_replays_exactly(self, kind, root):
        owner = kind.open(root, max_bytes=512)
        for item in range(60):
            kind.write(owner, item)
        assert kind.journal(owner).rotations > 0
        assert (root / (kind.filename + ".1")).exists()
        reborn = kind.open(root, max_bytes=512)
        assert kind.state(reborn) == kind.state(owner) == kind.expected(
            range(60)
        )

    def test_kill_at_every_rotation_step_keeps_acked_state(
        self, kind, root, tmp_path, monkeypatch
    ):
        max_bytes = 512
        owner = kind.open(root, max_bytes=max_bytes)
        acked = fill_until_rotation_due(
            kind, owner, root / kind.filename, max_bytes
        )
        # A second generation already exists: rotations replace it.
        acked += fill_until_rotation_due(
            kind, owner, root / kind.filename, max_bytes, start=len(acked)
        )
        crashes = []

        def crash_here():
            copy = tmp_path / f"crash-{len(crashes)}"
            shutil.copytree(root, copy)
            crashes.append(copy)

        def touches_journal(path):
            return Path(os.fspath(path)).parent == root

        real_open, real_replace = builtins.open, os.replace

        def spy_open(file, mode="r", *args, **kwargs):
            stream = real_open(file, mode, *args, **kwargs)
            if touches_journal(file) and set(mode) & set("wa+"):
                crash_here()  # created/truncated, nothing written yet
            return stream

        def spy_replace(source, target):
            if touches_journal(source):
                crash_here()
            real_replace(source, target)
            if touches_journal(source):
                crash_here()

        rotations = kind.journal(owner).rotations
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", spy_open)
            patch.setattr(os, "replace", spy_replace)
            kind.write(owner, len(acked))  # this write rotates
        assert kind.journal(owner).rotations == rotations + 1
        assert len(crashes) >= 3

        allowed = (kind.expected(acked), kind.expected(acked + [len(acked)]))
        for copy in crashes:
            restarted = kind.open(copy, max_bytes=max_bytes)
            assert kind.state(restarted) in allowed, copy.name
            # Whatever the kill left, the restarted owner's next write
            # and the restart after it agree with its memory.
            kind.write(restarted, 1000)
            assert kind.state(kind.open(copy, max_bytes=max_bytes)) == (
                kind.state(restarted)
            ), copy.name

    def test_current_without_a_complete_line_falls_back_to_rotated(
        self, kind, root
    ):
        owner = kind.open(root)
        for item in range(3):
            kind.write(owner, item)
        path = root / kind.filename
        os.replace(path, root / (kind.filename + ".1"))
        # A rotation killed while writing its snapshot line.
        path.write_bytes(b'{"op": "snapshot", "jo')
        reborn = kind.open(root)
        assert kind.state(reborn) == kind.expected(range(3))

    def test_rotated_only_start_survives_the_next_restart(self, kind, root):
        owner = kind.open(root)
        kind.write(owner, 0)
        kind.write(owner, 1)
        path = root / kind.filename
        os.replace(path, root / (kind.filename + ".1"))  # killed mid-rotation

        first = kind.open(root)
        assert kind.state(first) == kind.expected([0, 1])
        kind.write(first, 2)
        second = kind.open(root)
        assert kind.state(second) == kind.expected([0, 1, 2])
        assert kind.journal(first).rotations == 1

    def test_unreadable_journal_raises(self, kind, root):
        root.mkdir()
        (root / kind.filename).mkdir()  # a directory in the way
        with pytest.raises(JobJournalError):
            kind.open(root)


def test_serve_exits_3_on_unreadable_tenants_journal(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    (store / TENANTS_JOURNAL).mkdir()
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", str(store),
            "--port", "0",
            "--ready-file", str(tmp_path / "ready.json"),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert "tenants journal" in proc.stdout
