"""Self-time subtraction and the runtime wrapping the traced run relies on."""

import threading
import types

from tracing import Span, Tracer, root_time, self_times


def test_self_time_subtracts_direct_children_on_synthetic_spans():
    a = Span("a", 0.0, 10.0)
    b = Span("b", 1.0, 4.0, parent=a)
    c = Span("c", 2.0, 3.0, parent=b)
    d = Span("b", 5.0, 7.0, parent=a)
    e = Span("a", 11.0, 12.0)
    rows = self_times([a, b, c, d, e])
    # a: 10 - (3 + 2) + 1 (second root a); b: (3 - 1) + 2; c: 1.
    assert rows == {"a": 6.0, "b": 4.0, "c": 1.0}
    # Self times of a tree add up to its roots' durations.
    assert sum(rows.values()) == a.duration + e.duration


def test_root_time_clips_to_the_window_and_thread():
    spans = [
        Span("x", 0.0, 4.0, thread=1),
        Span("y", 1.0, 2.0, parent=None, thread=2),
        Span("z", 6.0, 9.0, thread=1),
    ]
    assert root_time(spans, thread=1, start=2.0, end=8.0) == 2.0 + 2.0


class Engine:
    def inner(self, x):
        return x + 1

    def outer(self, x):
        return self.inner(x) * 2


def test_wrap_records_nested_spans_and_uninstall_restores():
    original_outer = Engine.__dict__["outer"]
    module = types.SimpleNamespace(helper=lambda v: v * 3)
    tracer = Tracer()
    tracer.wrap(Engine, "outer", "layer.outer")
    tracer.wrap(Engine, "inner", "layer.inner", lambda span, args, kwargs, result: span.attrs.update(out=result))
    tracer.wrap(module, "helper", "layer.helper")
    assert Engine().outer(1) == 4
    assert module.helper(2) == 6
    outer, inner = tracer.named("layer.outer")[0], tracer.named("layer.inner")[0]
    assert inner.parent is outer and outer.parent is None
    assert inner.attrs == {"out": 2}
    assert tracer.named("layer.helper")[0].parent is None
    tracer.uninstall()
    assert Engine.__dict__["outer"] is original_outer
    assert module.helper(2) == 6 and len(tracer.spans) == 3


def test_spans_nest_per_thread():
    tracer = Tracer()
    tracer.wrap(Engine, "outer", "layer.outer")
    try:
        worker = threading.Thread(target=lambda: Engine().outer(0))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        Engine().outer(0)
    finally:
        tracer.uninstall()
    assert [span.parent for span in tracer.spans] == [None, None]
    assert len({span.thread for span in tracer.spans}) == 2
