"""Span recording, cross-process stitching, and the no-op fast path."""

import threading

from repro import obs
from repro.obs import tracing
from repro.obs.tracing import (
    Tracer,
    render_trace_tree,
    span_totals,
    stitch_trace,
)


class TestTracer:
    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["outer", "inner"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        for record in spans:
            assert record["end"] >= record["start"]

    def test_span_ids_carry_pid_prefix(self):
        import os

        tracer = Tracer()
        with tracer.span("s"):
            pass
        span_id = tracer.spans()[0]["span_id"]
        assert span_id.startswith(f"{os.getpid():x}-")

    def test_explicit_parent_links_across_processes(self):
        """A worker tracer seeded with the dispatcher's context attaches
        its spans under the dispatcher's span id."""
        parent = Tracer()
        with parent.span("query"):
            trace_id, parent_id = parent.context()
            worker = Tracer(trace_id=trace_id, parent_id=parent_id)
            with worker.span("worker.shard_task", shard=0):
                pass
            parent.add_spans(worker.spans())
        spans = parent.spans()
        by_name = {s["name"]: s for s in spans}
        assert (
            by_name["worker.shard_task"]["parent_id"]
            == by_name["query"]["span_id"]
        )
        assert by_name["worker.shard_task"]["trace_id"] == trace_id

    def test_exception_marks_span_error(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        (record,) = tracer.spans()
        assert record["attrs"]["error"] == "RuntimeError"

    def test_ambient_stack_is_thread_local(self):
        tracer = Tracer()

        def worker():
            with tracer.span("t2"):
                pass

        with tracer.span("t1"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        by_name = {s["name"]: s for s in tracer.spans()}
        # The second thread's span must NOT nest under t1 (different stack).
        assert by_name["t2"]["parent_id"] is None

    def test_open_span_name_reads_another_threads_stack(self):
        tracer = Tracer()
        here = threading.get_ident()
        seen = []
        with tracer.span("outer"):
            with tracer.span("inner"):
                t = threading.Thread(
                    target=lambda: seen.append(tracer.open_span_name(here))
                )
                t.start()
                t.join(timeout=10)
            assert tracer.open_span_name(here) == "outer"
        assert not t.is_alive()
        assert seen == ["inner"]
        assert tracer.open_span_name(here) is None


class TestNoopPath:
    def test_module_span_is_noop_when_inactive(self):
        assert tracing.active() is None
        finished = []
        tracing.set_span_hook(finished.append)
        try:
            with tracing.span("anything", k="v") as handle:
                assert handle.set(more=1) is handle
        finally:
            tracing.set_span_hook(None)
        assert finished == []
        assert handle.elapsed >= 0.0

    def test_untraced_spans_nest_with_independent_clocks(self):
        with tracing.span("a") as a:
            with tracing.span("b") as b:
                sum(range(1000))
            inner = b.elapsed
            assert b.elapsed == inner  # final once its block closed
            assert a.elapsed >= inner  # still live inside its block
        assert a is not b
        assert a.elapsed >= inner >= 0.0

    def test_traced_handle_elapsed_is_the_span_duration(self):
        with obs.observe() as observation:
            with tracing.span("timed") as handle:
                sum(range(1000))
        (record,) = observation.spans()
        assert handle.elapsed == record["end"] - record["start"]

    def test_nested_observe_restores_the_outer_tracer(self):
        with obs.observe() as outer:
            with obs.observe(trace=False):
                assert tracing.active() is None
                with tracing.span("untraced"):
                    pass
            assert tracing.active() is outer.tracer
            with tracing.span("traced"):
                pass
        assert tracing.active() is None
        assert [s["name"] for s in outer.spans()] == ["traced"]


class TestStitching:
    def _spans(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                pass
            with tracer.span("child_b"):
                pass
        return tracer.spans()

    def test_single_root_with_sorted_children(self):
        roots = stitch_trace(self._spans())
        assert len(roots) == 1
        assert roots[0].span.name == "root"
        assert [c.span.name for c in roots[0].children] == [
            "child_a",
            "child_b",
        ]

    def test_orphan_parent_becomes_root(self):
        spans = self._spans()
        kept = [s for s in spans if s["name"] != "root"]
        roots = stitch_trace(kept)
        assert sorted(r.span.name for r in roots) == ["child_a", "child_b"]

    def test_render_tree_indents_children(self):
        text = render_trace_tree(stitch_trace(self._spans()))
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child_a")
        assert lines[2].startswith("  child_b")

    def test_span_totals_sum_durations(self):
        totals = span_totals(self._spans())
        assert set(totals) == {"root", "child_a", "child_b"}
        assert totals["root"] >= totals["child_a"]
