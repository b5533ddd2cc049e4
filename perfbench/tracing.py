"""Layer tracing from outside the program.

The benchmark does not edit the code it measures.  :class:`Tracer`
replaces public entry points of the ``repro`` subpackages at run time
with timing wrappers (a method on its class, or a function in the
module namespace its caller looks it up in) and puts the originals back
on :meth:`Tracer.uninstall`.  Each wrapped call becomes one
:class:`Span`; spans nest per thread, so a layer's *self time* is its
span's duration minus the part covered by its wrapped children.

Work done in child processes (forked fault-simulation shards, service
cold-cell workers) is not wrapped: wrappers are inherited by the child
but their spans stay there.  That work is read from what the program
already folds back (shard durations in manifests, cell payloads).
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One wrapped call: ``name`` ran from ``start`` to ``end``.

    ``parent`` is the enclosing span of the same thread, or ``None``
    for a root span.
    """

    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    thread: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    Children of one span run in its thread and do not overlap, so the
    part of the parent covered by them is the sum of their durations.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            covered[key] = covered.get(key, 0.0) + span.duration
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + (
            span.duration - covered.get(id(span), 0.0)
        )
    return totals


def root_time(spans: Sequence[Span], thread: int, start: float, end: float) -> float:
    """Time of ``thread``'s root spans inside the window ``[start, end]``."""
    total = 0.0
    for span in spans:
        if span.parent is None and span.thread == thread:
            total += max(0.0, min(span.end, end) - max(span.start, start))
    return total


#: ``on_return(span, args, kwargs, result)`` may add attributes.
OnReturn = Callable[[Span, Tuple[Any, ...], Dict[str, Any], Any], None]


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Optional[OnReturn] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording ``name`` spans."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = original.__func__ if isinstance(original, staticmethod) else original
        tracer = self

        @functools.wraps(target)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span = Span(
                name,
                time.perf_counter(),
                parent=stack[-1] if stack else None,
                thread=threading.get_ident(),
            )
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = target(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        replacement = staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> List[Span]:
        """Finished spans called ``name``."""
        return [span for span in self.spans if span.name == name]

    def busy(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(span.duration for span in self.named(name))
