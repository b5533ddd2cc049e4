"""One append-only JSON-lines journal: append, rotate, replay.

The service's job journal (``jobs.jsonl``), its tenant ledger
(``tenants.jsonl``) and the store's advisory index (``index.jsonl``)
are each a :class:`Journal`.  The owner keeps its state in memory and
says what a line means; the journal owns the file:

* **Append** is one ``O_APPEND`` write per line; the file size is
  cached, so the rotation check costs no ``stat()``.
* **Rotation** past ``max_bytes`` keeps one older generation, ``.1``.
  With a ``snapshot`` callable it is atomic and compacting: the
  owner's state goes to ``<name>.tmp``, the current file is renamed to
  ``.1``, then the temp file is renamed into place.  Without one (the
  advisory index) it is a plain rename.
* **Replay** reads the current file, or ``.1`` when the current file
  is missing or holds no complete line (a kill mid-rotation); after
  that fallback the first append rotates first, so the next restart no
  longer depends on ``.1``.
* **Torn lines** (no newline, or not a JSON object) are skipped and
  counted (``<name>.torn``).  A torn tail is truncated back to the
  last newline before the next append, so no new line glues onto it.
* An existing but unreadable journal raises :class:`JournalError`; a
  failed append is counted (``<name>.write_failed``), never raised,
  and the cached size is re-synced on the next append.

Nothing calls ``fsync``: lines survive process death (SIGKILL, OOM
kill, a crash), not power loss or a kernel crash.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from . import telemetry

__all__ = ["Journal", "JournalError"]


def _encode(entry: Dict[str, Any]) -> bytes:
    return (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")


class JournalError(Exception):
    """A journal exists but cannot be read, so its state is lost."""


class Journal:
    """Append-only JSONL file with size-capped rotation and replay."""

    def __init__(
        self,
        path: Union[str, Path],
        name: str,
        max_bytes: int = 1 << 20,
        snapshot: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.path = Path(path)
        self.rotated = self.path.with_name(self.path.name + ".1")
        #: Telemetry prefix: ``<name>.torn/.rotated/.write_failed``.
        self.name = name
        self.max_bytes = int(max_bytes)
        self.snapshot = snapshot
        self.torn_lines = 0
        self.rotations = 0
        self.write_failures = 0
        #: Bytes in the current file; None = unknown, sync on append.
        self._size: Optional[int] = None
        #: ``.1`` holds the newest full state (replay fell back to it, or
        #: a rotation stopped between its renames): rotate before the
        #: next append, and keep ``.1``.
        self._rotated_newest = False
        self._lock = threading.Lock()

    def replay(self) -> List[Dict[str, Any]]:
        """Every complete entry of the newest generation, in order."""
        source = self.path
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            data = self._complete_lines()
            self._size = len(data)
            if not data:
                source = self.rotated
                self._rotated_newest = self.snapshot is not None
                data = source.read_bytes()
        except FileNotFoundError:
            self._rotated_newest = False
            return []
        except OSError as exc:
            raise JournalError(
                f"{self.path.stem} journal {source} exists but cannot be "
                f"read: {exc}"
            ) from exc
        *lines, tail = data.split(b"\n")
        if tail:  # unterminated last line of ``.1``
            self._torn()
        entries = []
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if isinstance(entry, dict):
                entries.append(entry)
            else:
                self._torn()
        return entries

    def append(self, entry: Dict[str, Any]) -> bool:
        """Append one line, rotating first past ``max_bytes``.

        Returns False when the write failed (counted, never raised).
        """
        line = _encode(entry)
        with self._lock:
            try:
                if self._size is None:
                    self._size = len(self._complete_lines())
                if self._rotated_newest or self._size >= self.max_bytes:
                    self._rotate()
                with open(self.path, "ab") as stream:
                    stream.write(line)
            except OSError:
                self.write_failures += 1
                telemetry.incr(f"{self.name}.write_failed")
                self._size = None
                return False
            self._size += len(line)
            return True

    def _rotate(self) -> None:
        """Start a new current file; the old one becomes ``.1``."""
        if self.snapshot is None:
            with suppress(FileNotFoundError):
                os.replace(self.path, self.rotated)
            self._size = 0
        else:
            data = _encode(self.snapshot())
            temp = self.path.with_name(self.path.name + ".tmp")
            with open(temp, "wb") as stream:
                stream.write(data)
            if not self._rotated_newest:
                with suppress(FileNotFoundError):
                    os.replace(self.path, self.rotated)
                self._rotated_newest = True
            os.replace(temp, self.path)
            self._size = len(data)
        self._rotated_newest = False
        self.rotations += 1
        telemetry.incr(f"{self.name}.rotated")

    def _complete_lines(self) -> bytes:
        """The current file, its torn tail (if any) truncated first."""
        try:
            with open(self.path, "rb+") as stream:
                data = stream.read()
                end = data.rfind(b"\n") + 1
                if end < len(data):
                    stream.truncate(end)
                    self._torn()
        except FileNotFoundError:
            return b""
        return data[:end]

    def _torn(self) -> None:
        self.torn_lines += 1
        telemetry.incr(f"{self.name}.torn")
