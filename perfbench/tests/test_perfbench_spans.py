import types

import pytest

from spans import Span, SpanRecorder, instrumented, self_time


def span(start, end, parent=None):
    return Span("s", start, end, parent, None)


def test_self_time_without_children_is_the_duration():
    assert self_time(span(1.0, 4.0), []) == pytest.approx(3.0)


def test_self_time_subtracts_disjoint_children():
    parent = span(0.0, 10.0)
    assert self_time(parent, [span(1.0, 3.0), span(5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    parent = span(0.0, 10.0)
    children = [span(4.0, 7.0), span(2.0, 5.0), span(6.0, 6.5)]
    assert self_time(parent, children) == pytest.approx(5.0)  # covered 2..7


def test_self_time_clips_children_to_the_parent():
    parent = span(2.0, 6.0)
    assert self_time(parent, [span(0.0, 3.0), span(5.0, 9.0)]) == pytest.approx(2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_recorder_nests_spans_and_computes_self_time():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    traced_leaf = rec.wrap("leaf", leaf)

    def outer():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(0.5)
        traced_leaf()
        clock.advance(0.25)

    rec.request = 7
    rec.wrap("outer", outer)()
    names = [s.name for s in rec.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert all(s.request == 7 for s in rec.spans)
    assert rec.spans[0].duration == pytest.approx(5.75)
    assert rec.self_times() == pytest.approx([1.75, 2.0, 2.0])


def test_recorder_closes_spans_when_the_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.spans[0].duration == pytest.approx(1.0)
    rec.wrap("after", lambda: None)()
    assert rec.spans[1].parent is None


def test_instrumented_rebinds_imported_names_and_restores_them():
    owner = types.ModuleType("owner")

    def work(x):
        return x + 1

    owner.work = work
    importer = types.ModuleType("importer")
    importer.work = owner.work  # as after `from owner import work`

    rec = SpanRecorder()
    target = ("owner.work", owner, "work", lambda a, k, r: {"arg": a[0]})
    with instrumented(rec, [target], [importer]):
        assert owner.work(1) == 2
        assert importer.work(5) == 6
    assert owner.work is work and importer.work is work
    assert [s.counts["arg"] for s in rec.spans] == [1, 5]


def test_instrumented_wraps_methods_for_subclasses():
    class Base:
        def attend(self, x):
            return x * 2

    class Child(Base):
        pass

    original = Base.attend
    rec = SpanRecorder()
    with instrumented(rec, [("Base.attend", Base, "attend", None)], []):
        assert Child().attend(3) == 6
    assert Base.attend is original
    assert [s.name for s in rec.spans] == ["Base.attend"]
