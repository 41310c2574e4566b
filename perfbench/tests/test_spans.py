import multiprocessing as mp
import os

from spans import Span, Tracer, self_times, union_ns


def span(sid, start, end, parent=None, pid=1, name="x"):
    return Span(pid, sid, name, start, end, parent, 0)


def test_union_merges_overlaps():
    assert union_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_ns([]) == 0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span(1, 0, 100),             # root
        span(2, 10, 40, parent=1),   # child
        span(3, 20, 30, parent=2),   # grandchild
        span(4, 50, 60, parent=1),   # child
        span(5, 0, 100, pid=2),      # same id space, other process
    ]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == 100 - 30 - 10
    assert selfs[(1, 2)] == 30 - 10
    assert selfs[(1, 3)] == 10
    assert selfs[(2, 5)] == 100


def test_wrapped_calls_nest_on_a_fake_clock(tmp_path):
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(tmp_path, clock=lambda: next(ticks))

    def inner():
        return 1

    wrapped_inner = tracer.wrap(inner, "layer.inner")

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert tracer.wrap(outer, "layer.outer")() == 2
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["layer.outer"]
    assert all(s.parent_id == root.span_id for s in by_name["layer.inner"])
    selfs = self_times(tracer.spans)
    assert selfs[(root.pid, root.span_id)] == root.duration_ns - 20


def _child_task(fn):
    fn()


def test_spans_of_forked_workers_are_collected(tmp_path):
    tracer = Tracer(tmp_path)

    def work():
        return os.getpid()

    traced = tracer.wrap(work, "runner.batch", flush=True)
    tracer._activate()
    try:
        traced()  # parent span stays in memory
        proc = mp.get_context("fork").Process(target=_child_task, args=(traced,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    pids = {s.pid for s in spans}
    assert os.getpid() in pids and len(pids) == 2
    assert len(spans) == 2  # the child did not re-report the parent's span
