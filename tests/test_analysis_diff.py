"""TraceDiff tests: the before/after policy comparison tool."""

import pytest

from repro.analysis import TraceDiff
from repro.core import replay_trace, small_experiment
from repro.pablo import Op, Trace
from repro.ppfs import PPFSPolicies
from tests.conftest import make_machine


def make_trace(name, rows):
    tr = Trace(name)
    for row in rows:
        tr.add(*row)
    return tr


class TestTraceDiff:
    def test_identical_traces_diff_to_unity(self):
        rows = [(0.0, 0, Op.WRITE, 3, 0, 100, 0.5)]
        diff = TraceDiff(make_trace("a", rows), make_trace("b", rows))
        assert diff.same_request_stream()
        assert diff.io_time_speedup == 1.0
        assert diff.delta("Write").count_delta == 0

    def test_speedup_computed_per_op(self):
        before = make_trace("slow", [(0.0, 0, Op.WRITE, 3, 0, 100, 2.0)])
        after = make_trace("fast", [(0.0, 0, Op.WRITE, 3, 0, 100, 0.5)])
        diff = TraceDiff(before, after)
        assert diff.delta("Write").time_speedup == pytest.approx(4.0)
        assert diff.io_time_speedup == pytest.approx(4.0)

    def test_vanished_cost_reports_inf(self):
        before = make_trace("a", [(0.0, 0, Op.SEEK, 3, 0, 100, 1.0)])
        after = make_trace("b", [(0.0, 0, Op.SEEK, 3, 0, 100, 0.0)])
        assert TraceDiff(before, after).delta("Seek").time_speedup == float("inf")

    def test_changed_counts_detected(self):
        before = make_trace("a", [(0.0, 0, Op.READ, 3, 0, 10, 0.1)] * 2)
        after = make_trace("b", [(0.0, 0, Op.READ, 3, 0, 10, 0.1)])
        diff = TraceDiff(before, after)
        assert not diff.same_request_stream()
        assert diff.delta("Read").count_delta == -1

    def test_render_contains_summary(self):
        rows = [(0.0, 0, Op.WRITE, 3, 0, 100, 0.5)]
        text = TraceDiff(make_trace("a", rows), make_trace("b", rows)).render()
        assert "total I/O node time" in text
        assert "Write" in text

    def test_escat_replay_diff_end_to_end(self):
        """Capture ESCAT, replay on tuned PPFS, diff: same stream, big
        write/seek speedups — the §5.2 workflow in three lines."""
        original = small_experiment("escat").run().trace
        replayed = replay_trace(
            original,
            machine_factory=make_machine,
            filesystem="ppfs",
            policies=PPFSPolicies.escat_tuned(),
            think_time="none",
        ).trace
        diff = TraceDiff(original, replayed)
        assert diff.same_request_stream()
        assert diff.delta("Write").time_speedup > 5
        assert diff.delta("Seek").time_speedup > 5
