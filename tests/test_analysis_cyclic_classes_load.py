"""Tests for cyclic access detection, the §2 I/O taxonomy, and I/O-node
load analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    FileAccess,
    FileAccessMap,
    FileCycles,
    IOClass,
    LoadReport,
    ReuseStats,
    classify_files,
    detect_cycles,
    observed_load,
    predicted_load,
    reuse_intervals,
)
from repro.core import small_experiment
from repro.pablo import Op, Trace
from repro.pfs import StripeLayout


def make_trace(rows):
    tr = Trace("t")
    for row in rows:
        tr.add(*row)
    return tr


class TestDetectCycles:
    def test_single_burst_is_one_cycle(self):
        rows = [(float(t), 0, Op.READ, 3, 0, 100, 0.1) for t in range(5)]
        cycles = detect_cycles(make_trace(rows), gap_s=10.0)
        assert cycles[3].n_cycles == 1
        assert not cycles[3].is_cyclic

    def test_gapped_bursts_split_into_cycles(self):
        rows = []
        for cycle in range(4):
            base = cycle * 100.0
            rows += [(base + k, 0, Op.READ, 3, k * 100, 100, 0.1) for k in range(5)]
        cycles = detect_cycles(make_trace(rows), gap_s=30.0)
        fc = cycles[3]
        assert fc.n_cycles == 4
        assert fc.is_cyclic
        assert len(fc.gaps) == 3
        assert all(g > 90 for g in fc.gaps)

    def test_irregular_gaps_scored(self):
        rows = []
        starts = [0.0, 100.0, 130.0, 400.0]  # wildly varying spacing
        for base in starts:
            rows += [(base + k, 0, Op.READ, 3, 0, 10, 0.1) for k in range(3)]
        fc = detect_cycles(make_trace(rows), gap_s=20.0)[3]
        assert fc.gap_irregularity() > 0.3

    def test_control_ops_ignored(self):
        rows = [
            (0.0, 0, Op.OPEN, 3, 0, 0, 0.1),
            (50.0, 0, Op.READ, 3, 0, 100, 0.1),
            (51.0, 0, Op.READ, 3, 100, 100, 0.1),
        ]
        cycles = detect_cycles(make_trace(rows), gap_s=10.0)
        assert cycles[3].n_cycles == 1  # the open at t=0 starts no cycle

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            detect_cycles(make_trace([]), gap_s=0)

    def test_htf_pscf_passes_appear_as_cycles(self):
        from dataclasses import replace

        from repro.apps import small_htf
        from repro.core import Experiment
        from tests.conftest import make_machine

        # Widen the inter-pass pause so passes are clearly separated.
        cfg = replace(small_htf(8), scf_pass_compute_s=10.0)
        result = Experiment(
            "htf", config=cfg, machine_factory=make_machine
        ).run()
        pscf = result.traces["pscf"]
        ev = pscf.events
        records = ev[ev["nbytes"] == cfg.integral_record_bytes]
        fid = int(records["file_id"][0])
        cycles = detect_cycles(pscf, gap_s=5.0)
        assert cycles[fid].n_cycles == cfg.scf_passes


class TestReuseIntervals:
    def test_no_reuse(self):
        rows = [(float(k), 0, Op.READ, 3, k * 1000, 1000, 0.1) for k in range(5)]
        stats = reuse_intervals(make_trace(rows), region_bytes=1000)
        assert stats.n_reuses == 0
        assert stats.reuse_fraction == 0.0

    def test_cyclic_reread_intervals(self):
        rows = []
        for cycle in range(3):
            for k in range(4):
                rows.append((cycle * 100.0 + k, 0, Op.READ, 3, k * 1000, 1000, 0.1))
        stats = reuse_intervals(make_trace(rows), region_bytes=1000)
        assert stats.n_first_touches == 4
        assert stats.n_reuses == 8
        assert stats.reuse_fraction == pytest.approx(8 / 12)
        assert stats.mean_interval_s == pytest.approx(100.0)

    def test_spanning_access_touches_multiple_regions(self):
        rows = [
            (0.0, 0, Op.WRITE, 3, 500, 1000, 0.1),  # regions 0 and 1
            (10.0, 0, Op.READ, 3, 0, 100, 0.1),  # region 0 again
        ]
        stats = reuse_intervals(make_trace(rows), region_bytes=1000)
        assert stats.n_first_touches == 2
        assert stats.n_reuses == 1

    def test_invalid_region(self):
        with pytest.raises(ValueError):
            reuse_intervals(make_trace([]), region_bytes=0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 1.5, 7.25, 40.0]),  # ties in time
                st.sampled_from(list(Op)),
                st.integers(3, 5),
                st.integers(0, 20_000),
                st.sampled_from([0, 1, 999, 1000, 1001, 4321]),  # zero-byte, multi-region
            ),
            max_size=60,
        ),
        st.sampled_from([1, 1000, 4096]),
        st.sampled_from([None, 3, 4, 9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_row_by_row_walk(self, rows, region, file_id):
        trace = make_trace(
            [(t, 0, op, fid, off, n, 0.1) for t, op, fid, off, n in rows]
        )
        got = reuse_intervals(trace, region_bytes=region, file_id=file_id)
        assert got == reference_reuse_intervals(trace, region, file_id)

    def test_matches_walk_on_app_traces(self):
        for app in ("escat", "htf", "checkpoint"):
            for trace in small_experiment(app).run().traces.values():
                for region in (4096, 64 * 1024):
                    assert reuse_intervals(trace, region) == reference_reuse_intervals(
                        trace, region
                    )


def reference_reuse_intervals(trace, region_bytes, file_id=None):
    """The row-by-row walk :func:`reuse_intervals` vectorized: the oracle
    its statistics must equal exactly."""
    ev = trace.events
    data = ev[np.isin(ev["op"], [int(Op.READ), int(Op.AREAD), int(Op.WRITE)])]
    if file_id is not None:
        data = data[data["file_id"] == file_id]
    last_touch = {}
    intervals = []
    first = 0
    order = np.argsort(data["timestamp"], kind="stable")
    for row in data[order]:
        t = float(row["timestamp"])
        start_region = int(row["offset"]) // region_bytes
        end_region = int(row["offset"] + max(row["nbytes"], 1) - 1) // region_bytes
        for region in range(start_region, end_region + 1):
            key = (int(row["file_id"]), region)
            prev = last_touch.get(key)
            if prev is None:
                first += 1
            else:
                intervals.append(t - prev)
            last_touch[key] = t
    arr = np.asarray(intervals) if intervals else np.zeros(0)
    return ReuseStats(
        n_reuses=len(intervals),
        n_first_touches=first,
        mean_interval_s=float(arr.mean()) if len(arr) else 0.0,
        median_interval_s=float(np.median(arr)) if len(arr) else 0.0,
        max_interval_s=float(arr.max()) if len(arr) else 0.0,
    )


class TestPerFileGrouping:
    """The access map and the cycles group the trace by file once; the
    per-file masks they replaced are kept below as the reference."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 1.5, 7.3, 40.0, 95.2]),  # ties in time
                st.sampled_from(list(Op)),
                st.integers(3, 6),
                st.integers(0, 2_000_000),
            ),
            max_size=60,
        ),
        st.sampled_from([0.5, 5.0, 30.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_file_masks(self, rows, gap):
        trace = make_trace(
            [(t, 0, op, fid, 0, n, 0.1) for t, op, fid, n in rows]
        )
        trace.file_names[4] = "/named"
        got, want = FileAccessMap(trace).files, reference_access(trace)
        assert list(got) == list(want)
        for fid, fa in got.items():
            ref = want[fid]
            assert (fa.file_id, fa.name, fa.bytes_read, fa.bytes_written) == (
                ref.file_id, ref.name, ref.bytes_read, ref.bytes_written
            )
            for times, ref_times in ((fa.read_times, ref.read_times),
                                     (fa.write_times, ref.write_times)):
                assert times.dtype == ref_times.dtype
                assert times.tobytes() == ref_times.tobytes()
        assert detect_cycles(trace, gap_s=gap) == reference_cycles(trace, gap)


def reference_access(trace):
    """One full-trace mask per file, as :class:`FileAccessMap` once did."""
    ev = trace.events
    files = {}
    read_ops = np.isin(ev["op"], [int(Op.READ), int(Op.AREAD)])
    write_ops = ev["op"] == int(Op.WRITE)
    for fid in np.unique(ev["file_id"]):
        r = ev[(ev["file_id"] == fid) & read_ops]
        w = ev[(ev["file_id"] == fid) & write_ops]
        if len(r) or len(w):
            files[int(fid)] = FileAccess(
                int(fid), trace.file_names.get(int(fid), ""),
                np.sort(r["timestamp"].astype(float)), np.sort(w["timestamp"].astype(float)),
                int(r["nbytes"].sum()), int(w["nbytes"].sum()),
            )
    return files


def reference_cycles(trace, gap_s):
    """One full-trace mask per file, as :func:`detect_cycles` once did."""
    ev = trace.events
    data = ev[np.isin(ev["op"], [int(Op.READ), int(Op.AREAD), int(Op.WRITE)])]
    out = {}
    for fid in np.unique(data["file_id"]):
        times = np.sort(data["timestamp"][data["file_id"] == fid].astype(float))
        breaks = np.nonzero(np.diff(times) >= gap_s)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(times) - 1]])
        cycles = tuple(
            (float(times[s]), float(times[e]), int(e - s + 1)) for s, e in zip(starts, ends)
        )
        gaps = tuple(float(cycles[i + 1][0] - cycles[i][1]) for i in range(len(cycles) - 1))
        out[int(fid)] = FileCycles(int(fid), cycles, gaps)
    return out


class TestClassifyFiles:
    def test_escat_taxonomy(self):
        result = small_experiment("escat").run()
        classes = classify_files(result.trace, cycle_gap_s=0.5)
        from repro.apps.escat import INPUT_IDS, OUTPUT_IDS, STAGING_IDS

        for fid in INPUT_IDS:
            assert classes[fid].io_class is IOClass.COMPULSORY_INPUT
        for fid in OUTPUT_IDS:
            assert classes[fid].io_class is IOClass.COMPULSORY_OUTPUT
        for fid in STAGING_IDS:
            assert classes[fid].io_class in (IOClass.CHECKPOINT, IOClass.OUT_OF_CORE)

    def test_out_of_core_detection(self):
        rows = [(0.0, 0, Op.WRITE, 5, 0, 10_000, 0.5)]
        for cycle in range(4):
            rows.append((100.0 + cycle * 100, 0, Op.READ, 5, 0, 10_000, 0.5))
        classes = classify_files(make_trace(rows), cycle_gap_s=30.0)
        assert classes[5].io_class is IOClass.OUT_OF_CORE
        assert classes[5].read_cycles >= 3

    def test_checkpoint_single_reread(self):
        rows = [
            (0.0, 0, Op.WRITE, 5, 0, 10_000, 0.5),
            (100.0, 0, Op.READ, 5, 0, 10_000, 0.5),
        ]
        classes = classify_files(make_trace(rows), cycle_gap_s=30.0)
        assert classes[5].io_class is IOClass.CHECKPOINT

    def test_mixed_interleaved_file(self):
        rows = [
            (0.0, 0, Op.READ, 5, 0, 100, 0.1),
            (1.0, 0, Op.WRITE, 5, 0, 100, 0.1),
            (2.0, 0, Op.READ, 5, 0, 100, 0.1),
        ]
        classes = classify_files(make_trace(rows))
        assert classes[5].io_class is IOClass.MIXED


class TestLoad:
    def test_predicted_round_robin_balance(self):
        layout = StripeLayout(n_ionodes=4)
        rows = [(0.0, 0, Op.WRITE, 3, 0, 8 * 65536, 1.0)]
        report = predicted_load(make_trace(rows), {3: layout}, n_ionodes=4)
        assert report.bytes_per_node == (2 * 65536,) * 4
        assert report.imbalance == pytest.approx(1.0)

    def test_predicted_skewed_load(self):
        layout = StripeLayout(n_ionodes=4)
        # All accesses inside stripe 0 -> one hot I/O node.
        rows = [(float(k), 0, Op.READ, 3, 0, 1000, 0.1) for k in range(10)]
        report = predicted_load(make_trace(rows), {3: layout}, n_ionodes=4)
        assert report.imbalance == pytest.approx(4.0)
        assert report.busiest == 0

    def test_unknown_files_skipped(self):
        rows = [(0.0, 0, Op.WRITE, 99, 0, 1000, 0.1)]
        report = predicted_load(make_trace(rows), {}, n_ionodes=4)
        assert report.total_bytes == 0

    def test_observed_matches_machine_counters(self):
        result = small_experiment("escat").run()
        report = observed_load(result.machine)
        assert report.total_bytes == sum(
            ion.bytes_served for ion in result.machine.ionodes
        )
        assert report.total_bytes > 0

    def test_render_output(self):
        report = LoadReport((100, 300, 200, 0))
        text = report.render()
        assert "imbalance" in text
        assert "300" in text

    def test_idle_report(self):
        report = LoadReport((0, 0))
        assert report.imbalance == 0.0


class TestLoadIntegration:
    def test_predicted_load_matches_observed_for_unbuffered_run(self):
        """Predicted (trace x striping) vs observed (machine counters)
        agree on total served bytes for a workload without client
        buffering effects (all requests larger than the client buffers)."""
        from repro.pablo import InstrumentedPFS
        from repro.pfs import CostModel, PFS
        from tests.conftest import drive, make_machine

        machine = make_machine()
        costs = CostModel(read_buffer_bytes=0, write_buffer_bytes=0)
        fs = InstrumentedPFS(PFS(machine, costs=costs))
        paths = {}

        def worker(node):
            path = f"/load/f{node}"
            fs.ensure(path, size=2_000_000)
            paths[node] = path
            fd = yield from fs.open(node, path)
            for k in range(4):
                yield from fs.seek(node, fd, k * 300_000)
                yield from fs.read(node, fd, 200_000)
            yield from fs.seek(node, fd, 0)
            yield from fs.write(node, fd, 150_000)
            yield from fs.close(node, fd)

        drive(machine, *[worker(n) for n in range(4)])
        layouts = {
            fs.fs.lookup(path).file_id: fs.fs.lookup(path).layout
            for path in paths.values()
        }
        predicted = predicted_load(
            fs.trace, layouts, n_ionodes=len(machine.ionodes)
        )
        observed = observed_load(machine)
        assert predicted.total_bytes == observed.total_bytes
        assert predicted.bytes_per_node == observed.bytes_per_node
