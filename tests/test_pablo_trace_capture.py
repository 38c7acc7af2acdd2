"""Trace container and instrumented-capture tests."""

import copy

import numpy as np
import pytest

from repro.pablo import EVENT_DTYPE, InstrumentedPFS, Op, Trace
from repro.pfs import PFS, AccessMode
from tests.conftest import drive, make_machine


@pytest.fixture
def machine():
    return make_machine()


@pytest.fixture
def ifs(machine):
    return InstrumentedPFS(PFS(machine), trace=Trace("test", nodes=8))


def simple_workload(ifs, node=0):
    fd = yield from ifs.open(node, "/w", create=True)
    yield from ifs.seek(node, fd, 1000)
    yield from ifs.write(node, fd, 2048)
    yield from ifs.seek(node, fd, 0)
    yield from ifs.read(node, fd, 512)
    yield from ifs.flush(node, fd)
    size = yield from ifs.lsize(node, fd)
    h = yield from ifs.aread(node, fd, 1024)
    yield from ifs.iowait(node, h)
    yield from ifs.close(node, fd)
    return size


class TestTrace:
    def test_events_dtype(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        assert ifs.trace.events.dtype == EVENT_DTYPE

    def test_one_event_per_call(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        ops = [Op(o) for o in ifs.trace.events["op"]]
        assert ops == [
            Op.OPEN, Op.SEEK, Op.WRITE, Op.SEEK, Op.READ,
            Op.FLUSH, Op.LSIZE, Op.AREAD, Op.IOWAIT, Op.CLOSE,
        ]

    def test_timestamps_nondecreasing_per_node(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        ts = ifs.trace.events["timestamp"]
        assert (np.diff(ts) >= 0).all()

    def test_durations_positive_and_bounded_by_span(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        ev = ifs.trace.events
        assert (ev["duration"] >= 0).all()
        assert (ev["timestamp"] + ev["duration"] <= machine.now + 1e-9).all()

    def test_seek_records_distance(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        seeks = ifs.trace.by_op(Op.SEEK)
        # 0 -> 1000 (distance 1000); write leaves pointer at 3048; -> 0.
        assert list(seeks["nbytes"]) == [1000, 3048]

    def test_read_write_record_transfer_sizes(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        assert ifs.trace.by_op(Op.WRITE)["nbytes"][0] == 2048
        assert ifs.trace.by_op(Op.READ)["nbytes"][0] == 512

    def test_file_names_recorded(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        assert "/w" in ifs.trace.file_names.values()

    def test_window_filter(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        ev = ifs.trace.events
        mid = float(np.median(ev["timestamp"]))
        early = ifs.trace.window(0, mid)
        late = ifs.trace.window(mid, machine.now + 1)
        assert len(early) + len(late) == len(ev)

    def test_sddf_roundtrip_both_encodings(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        for binary in (False, True):
            again = Trace.from_sddf(ifs.trace.to_sddf(binary=binary))
            assert (again.events == ifs.trace.events).all()
            assert again.application == "test"
            assert again.nodes == 8

    def test_save_load_file(self, machine, ifs, tmp_path):
        drive(machine, simple_workload(ifs))
        path = str(tmp_path / "trace.sddf")
        ifs.trace.save(path)
        again = Trace.load(path)
        assert (again.events == ifs.trace.events).all()

    def test_duration_property(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        assert 0 < ifs.trace.duration <= machine.now

    def test_empty_trace_edge_cases(self):
        trace = Trace("empty")
        assert len(trace) == 0
        assert list(trace) == []
        assert trace.duration == 0.0
        assert trace.summary_line() == "empty: 0 events, 0 data bytes, span 0.0s"
        assert len(trace.events) == 0
        again = Trace.from_sddf(trace.to_sddf())
        assert len(again) == 0 and again.application == "empty"

    def test_summary_line_counts_data_ops_only(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        line = ifs.trace.summary_line()
        # read 512 + write 2048 + aread 1024; seek distances are excluded.
        assert "3,584 data bytes" in line
        assert line.startswith("test: 10 events")

    def test_grow_and_extend_preserve_rows(self):
        trace = Trace()
        rows = [(float(i), i % 4, int(Op.READ), 1, i * 10, 100, 0.5) for i in range(3000)]
        for r in rows[:1500]:
            trace.add(*r)
        trace.extend(rows[1500:])
        assert len(trace) == 3000
        assert list(trace) == rows

    def test_content_hash_detects_any_change(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        h0 = ifs.trace.content_hash()
        assert Trace.from_sddf(ifs.trace.to_sddf(binary=True)).content_hash() == h0
        ifs.trace.add(machine.now, 0, Op.CLOSE, 1, 0, 0, 0.0)
        assert ifs.trace.content_hash() != h0


class TestCapture:
    def test_aread_and_iowait_are_separate_events(self, machine, ifs):
        drive(machine, simple_workload(ifs))
        aread = ifs.trace.by_op(Op.AREAD)
        iowait = ifs.trace.by_op(Op.IOWAIT)
        assert len(aread) == len(iowait) == 1
        # Issue is cheap; the wait absorbs the transfer time.
        assert aread["duration"][0] < iowait["duration"][0] + 1e9  # both recorded
        assert aread["nbytes"][0] == 1024
        assert iowait["file_id"][0] == aread["file_id"][0]

    def test_observers_see_every_event(self, machine, ifs):
        seen = []

        class Obs:
            def observe(self, *event):
                seen.append(event)

        ifs.add_observer(Obs())
        drive(machine, simple_workload(ifs))
        assert len(seen) == len(ifs.trace)

    def test_overhead_perturbs_timing(self):
        def run(overhead):
            m = make_machine()
            f = InstrumentedPFS(PFS(m), overhead_s=overhead)
            drive(m, simple_workload(f))
            return m.now

        assert run(0.01) > run(0.0)

    def test_negative_overhead_rejected(self, machine):
        with pytest.raises(ValueError):
            InstrumentedPFS(PFS(machine), overhead_s=-0.1)

    def test_ops_on_the_file_system_itself_are_captured(self, machine, ifs):
        """The capture is a sink inside the file system: calling its ops
        directly records the same rows as calling them through ``ifs``."""
        drive(machine, simple_workload(ifs.fs))
        direct = ifs.trace.events.copy()
        twin = InstrumentedPFS(PFS(make_machine()), trace=Trace("test", nodes=8))
        drive(twin.fs.machine, simple_workload(twin))
        assert direct.tobytes() == twin.trace.events.tobytes()

    def test_passes_attribute_access_through(self, ifs):
        assert ifs.read == ifs.fs.read
        assert ifs.track_content is ifs.fs.track_content
        assert copy.copy(ifs).fs is ifs.fs

    def test_setiomode_passthrough_emits_no_event(self, machine, ifs):
        def go():
            fd = yield from ifs.open(0, "/m", create=True)
            yield from ifs.write(0, fd, 256, data=None)
            yield from ifs.setiomode(0, fd, AccessMode.M_RECORD, record_size=256)
            yield from ifs.close(0, fd)

        drive(machine, go())
        assert len(ifs.trace) == 3  # open, write, close only

    def test_multi_node_capture_attributes_nodes(self, machine, ifs):
        def worker(node):
            fd = yield from ifs.open(node, f"/n{node}", create=True)
            yield from ifs.write(node, fd, 128)
            yield from ifs.close(node, fd)

        drive(machine, worker(0), worker(1), worker(2))
        assert set(ifs.trace.events["node"]) == {0, 1, 2}
