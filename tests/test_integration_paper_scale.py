"""Paper-scale integration tests: the headline shapes of Tables 1-6.

These run the full 128-node workloads (a few seconds each) and assert the
*shape* the paper reports — counts exactly, times within stated bands.
"""

import numpy as np
import pytest

from repro.analysis import (
    BurstAnalysis,
    FileAccessMap,
    OperationTable,
    SizeTable,
    Timeline,
)
from repro.pablo import Op


@pytest.fixture(scope="module")
def escat(paper_run):
    return paper_run("escat")


@pytest.fixture(scope="module")
def render(paper_run):
    return paper_run("render")


@pytest.fixture(scope="module")
def htf(paper_run):
    return paper_run("htf")


class TestEscatPaperScale:
    def test_table1_counts(self, escat):
        t = OperationTable(escat.trace)
        assert t.row("Read").count == 560
        assert t.row("Write").count == 13330
        assert t.row("Open").count == 262
        assert t.row("Close").count == 262
        # Seeks: one per staging write (paper reports 12,034; see
        # EXPERIMENTS.md for the 10% structural difference).
        assert t.row("Seek").count == 13312

    def test_table1_volumes_within_tenth_percent(self, escat):
        t = OperationTable(escat.trace)
        assert t.row("Read").volume == pytest.approx(34_226_048, rel=1e-3)
        assert t.row("Write").volume == pytest.approx(26_757_088, rel=1e-3)

    def test_table1_time_shape(self, escat):
        t = OperationTable(escat.trace)
        # Seeks + writes dominate (paper: 95.8 %); reads negligible.
        assert t.time_fraction("Seek", "Write") > 0.9
        assert t.time_fraction("Read") < 0.01
        # Total node time within 25 % of the paper's 38,789 s.
        assert t.all_row.node_time_s == pytest.approx(38_789, rel=0.25)

    def test_table2_size_buckets_exact(self, escat):
        sizes = SizeTable(escat.trace)
        assert sizes.read.buckets == (297, 3, 260, 0)
        assert sizes.write.buckets == (13330, 0, 0, 0)

    def test_figure4_write_bursts_decay(self, escat):
        ba = BurstAnalysis(Timeline(escat.trace, "write"), gap_s=20.0)
        assert len(ba.bursts) >= 50  # one per compute/write cycle
        early, late = ba.spacing_trend()
        assert early > 1.4 * late  # spacing shrinks (paper: ~160 s -> ~80 s)
        assert 100 < early < 200
        assert 60 < late < 130

    def test_figure5_file_roles(self, escat):
        amap = FileAccessMap(escat.trace)
        assert {9, 10, 11} <= set(amap.file_ids())
        assert all(amap.files[fid].read_only for fid in (9, 10, 11))
        assert all(amap.files[fid].write_only for fid in (3, 4, 5))
        assert all(amap.files[fid].written_then_read() for fid in (7, 8))

    def test_runtime_about_100_minutes(self, escat):
        # Paper: ~1h45m.  Within 20 %.
        assert escat.machine.now == pytest.approx(6300, rel=0.2)


class TestRenderPaperScale:
    def test_table3_counts(self, render):
        t = OperationTable(render.trace)
        assert t.all_row.count == 1504
        assert t.row("Read").count == 121
        assert t.row("AsynchRead").count == 436
        assert t.row("I/O Wait").count == 436
        assert t.row("Write").count == 300
        assert t.row("Seek").count == 4
        assert t.row("Open").count == 106
        assert t.row("Close").count == 101

    def test_table3_volumes(self, render):
        t = OperationTable(render.trace)
        assert t.row("Write").volume == 98_305_400  # exact (100 frames + headers)
        assert t.row("AsynchRead").volume == pytest.approx(880_849_125, rel=0.03)

    def test_table3_time_shape(self, render):
        t = OperationTable(render.trace)
        assert t.time_fraction("I/O Wait") > 0.4  # dominates (paper: 53.7 %)
        assert t.time_fraction("Read") < 0.01
        iowait = t.row("I/O Wait").node_time_s
        assert iowait == pytest.approx(88.44, rel=0.15)

    def test_read_throughput_about_9_5_mbps(self, render):
        ev = render.trace.events
        waits = ev[ev["op"] == int(Op.IOWAIT)]
        areads = ev[ev["op"] == int(Op.AREAD)]
        span = (waits["timestamp"] + waits["duration"]).max() - areads["timestamp"].min()
        throughput = areads["nbytes"].sum() / span / 1e6
        assert 8.0 < throughput < 12.0  # paper: ~9.5 MB/s

    def test_table4_buckets_exact(self, render):
        sizes = SizeTable(render.trace)
        assert sizes.read.buckets == (121, 0, 0, 436)
        assert sizes.write.buckets == (200, 0, 0, 100)

    def test_figure8_staircase(self, render):
        amap = FileAccessMap(render.trace)
        outputs = [fa.file_id for fa in amap.staircase()]
        assert len(outputs) == 100
        assert amap.is_staircase(outputs)

    def test_runtime_about_8_minutes(self, render):
        assert render.machine.now == pytest.approx(470, rel=0.15)


class TestHTFPaperScale:
    def test_table5_psetup(self, htf):
        t = OperationTable(htf.traces["psetup"])
        assert t.all_row.count == 832
        assert t.row("Read").count == 371
        assert t.row("Write").count == 452
        assert t.row("Seek").count == 2
        assert t.row("Open").count == 4
        assert t.row("Close").count == 3
        assert t.row("Read").volume == pytest.approx(3_522_497, rel=1e-3)
        assert t.row("Write").volume == pytest.approx(3_744_872, rel=1e-3)

    def test_table5_pargos(self, htf):
        t = OperationTable(htf.traces["pargos"])
        assert t.row("Write").count == 8535
        assert t.row("Write").volume == pytest.approx(698_958_109, rel=1e-3)
        assert t.row("Open").count == 130
        assert t.row("Close").count == 129
        assert t.row("Lsize").count == 128
        assert t.row("Forflush").count == pytest.approx(8657, abs=20)
        # Opens dominate the phase's I/O time (paper: 63.4 %).
        assert t.time_fraction("Open") > 0.5
        assert t.time_fraction("Open") > t.time_fraction("Write")

    def test_table5_pscf(self, htf):
        t = OperationTable(htf.traces["pscf"])
        assert t.all_row.count == 52832
        assert t.row("Read").count == 51499
        assert t.row("Write").count == 207
        assert t.row("Seek").count == 813
        assert t.row("Open").count == 157
        assert t.row("Close").count == 156
        assert t.row("Read").volume == pytest.approx(4_201_634_304, rel=1e-3)
        # Seek volume is cumulative distance (paper: ~3.5 GB of rewinds).
        assert t.row("Seek").volume == pytest.approx(3_495_198_798, rel=0.02)
        # Reads dominate utterly (paper: 98.4 %).
        assert t.time_fraction("Read") > 0.9

    def test_table6_buckets_exact(self, htf):
        s_init = SizeTable(htf.traces["psetup"])
        assert s_init.read.buckets == (151, 220, 0, 0)
        assert s_init.write.buckets == (218, 234, 0, 0)
        s_int = SizeTable(htf.traces["pargos"])
        assert s_int.read.buckets == (143, 2, 0, 0)
        assert s_int.write.buckets == (2, 1, 8532, 0)
        s_scf = SizeTable(htf.traces["pscf"])
        assert s_scf.read.buckets == (165, 109, 51225, 0)
        assert s_scf.write.buckets == (43, 158, 6, 0)

    def test_program_walltimes(self, htf):
        def span(tr):
            ev = tr.events
            return float((ev["timestamp"] + ev["duration"]).max() - ev["timestamp"].min())

        assert span(htf.traces["psetup"]) == pytest.approx(127, rel=0.25)
        assert span(htf.traces["pargos"]) == pytest.approx(1173, rel=0.15)
        assert span(htf.traces["pscf"]) == pytest.approx(1008, rel=0.15)

    def test_integral_files_per_node(self, htf):
        amap = FileAccessMap(htf.traces["pargos"])
        write_only = [fa for fa in amap.files.values() if fa.bytes_written > 5_000_000]
        assert len(write_only) == 128  # one ~5.4 MB integral file per node
