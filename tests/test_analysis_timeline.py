"""Timeline, burst, file-access-map, phase, pattern and stats tests."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import (
    BurstAnalysis,
    Distribution,
    FileAccessMap,
    PatternKind,
    PatternSummary,
    Timeline,
    ascii_access_map,
    ascii_scatter,
    bimodality_coefficient,
    classify_offsets,
    detect_phases,
    op_duration_distribution,
    op_size_distribution,
)
from repro.analysis.stats import median
from repro.pablo import Op, Trace


def make_trace(rows):
    tr = Trace("t")
    for row in rows:
        tr.add(*row)
    return tr


class TestTimeline:
    def test_read_kind_includes_async(self):
        rows = [
            (0.0, 0, Op.READ, 3, 0, 100, 0.1),
            (1.0, 0, Op.AREAD, 3, 0, 200, 0.1),
            (2.0, 0, Op.WRITE, 3, 0, 300, 0.1),
        ]
        tl = Timeline(make_trace(rows), "read")
        assert list(tl.sizes) == [100, 200]

    def test_write_kind(self):
        rows = [(0.0, 0, Op.WRITE, 3, 0, 300, 0.1)]
        assert len(Timeline(make_trace(rows), "write")) == 1

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Timeline(make_trace([]), "bogus")

    def test_within_zoom(self):
        rows = [(float(t), 0, Op.READ, 3, 0, 10, 0.01) for t in range(10)]
        tl = Timeline(make_trace(rows), "read").within(2.0, 5.0)
        assert list(tl.times) == [2.0, 3.0, 4.0]

    def test_rate_histogram(self):
        rows = [(float(t), 0, Op.READ, 3, 0, 10, 0.01) for t in [0.1, 0.2, 5.5]]
        starts, counts = Timeline(make_trace(rows), "read").rate(1.0)
        assert counts[0] == 2
        assert counts[5] == 1

    def test_span(self):
        rows = [(3.0, 0, Op.READ, 3, 0, 10, 0.01), (9.0, 0, Op.READ, 3, 0, 10, 0.01)]
        assert Timeline(make_trace(rows), "read").span() == (3.0, 9.0)

    def test_interarrivals(self):
        rows = [(t, 0, Op.READ, 3, 0, 10, 0.01) for t in (1.0, 2.5, 7.0)]
        gaps = Timeline(make_trace(rows), "read").interarrivals()
        assert list(gaps) == [1.5, 4.5]
        assert len(Timeline(make_trace(rows[:1]), "read").interarrivals()) == 0


class TestBurstAnalysis:
    def _bursty(self, spacings, per_burst=5):
        rows = []
        t = 0.0
        for gap in spacings:
            for k in range(per_burst):
                rows.append((t + k * 0.1, 0, Op.WRITE, 7, 0, 2048, 0.05))
            t += gap
        return make_trace(rows)

    def test_burst_count(self):
        ba = BurstAnalysis(Timeline(self._bursty([100] * 5), "write"), gap_s=10)
        assert len(ba.bursts) == 5
        assert all(b.count == 5 for b in ba.bursts)

    def test_decreasing_spacing_detected(self):
        spacings = [160, 140, 120, 100, 80, 80]
        ba = BurstAnalysis(Timeline(self._bursty(spacings), "write"), gap_s=10)
        early, late = ba.spacing_trend()
        assert early > late

    def test_single_burst_no_spacings(self):
        ba = BurstAnalysis(Timeline(self._bursty([0]), "write"), gap_s=10)
        assert len(ba.bursts) == 1
        assert len(ba.spacings) == 0

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            BurstAnalysis(Timeline(make_trace([]), "write"), gap_s=0)


class TestFileAccessMap:
    ROWS = [
        (0.0, 0, Op.READ, 9, 0, 100, 0.1),
        (1.0, 0, Op.READ, 9, 100, 100, 0.1),
        (2.0, 0, Op.WRITE, 7, 0, 200, 0.1),
        (5.0, 0, Op.READ, 7, 0, 200, 0.1),
        (3.0, 0, Op.WRITE, 4, 0, 300, 0.1),
    ]

    def test_read_only_and_write_only(self):
        amap = FileAccessMap(make_trace(self.ROWS))
        assert amap.files[9].read_only
        assert amap.files[4].write_only
        assert not amap.files[7].read_only

    def test_written_then_read(self):
        amap = FileAccessMap(make_trace(self.ROWS))
        assert amap.files[7].written_then_read()
        assert not amap.files[9].written_then_read()

    def test_staircase_detection(self):
        rows = [
            (float(10 * i), 0, Op.WRITE, 100 + i, 0, 983040, 0.3)
            for i in range(5)
        ]
        amap = FileAccessMap(make_trace(rows))
        stairs = amap.staircase()
        assert [fa.file_id for fa in stairs] == [100, 101, 102, 103, 104]
        assert amap.is_staircase([100, 101, 102, 103, 104])

    def test_interleaved_files_not_staircase(self):
        rows = [
            (0.0, 0, Op.WRITE, 100, 0, 10, 0.1),
            (1.0, 0, Op.WRITE, 101, 0, 10, 0.1),
            (2.0, 0, Op.WRITE, 100, 10, 10, 0.1),
        ]
        amap = FileAccessMap(make_trace(rows))
        assert not amap.is_staircase([100, 101])

    def test_ascii_rendering_mentions_files(self):
        text = ascii_access_map(FileAccessMap(make_trace(self.ROWS)))
        for fid in (4, 7, 9):
            assert str(fid) in text


class TestPhases:
    def test_read_then_write_phases(self):
        rows = [(float(t), 0, Op.READ, 3, 0, 10_000, 0.1) for t in range(0, 100, 5)]
        rows += [(float(t), 0, Op.WRITE, 3, 0, 10_000, 0.1) for t in range(100, 200, 5)]
        phases = detect_phases(make_trace(rows), window_s=20.0)
        labels = [p.label for p in phases]
        assert labels == ["read", "write"]

    def test_idle_gap_detected(self):
        rows = [(0.0, 0, Op.READ, 3, 0, 100, 0.1)]
        rows += [(100.0, 0, Op.READ, 3, 0, 100, 0.1)]
        phases = detect_phases(make_trace(rows), window_s=10.0)
        assert any(p.label == "idle" for p in phases)

    def test_mixed_phase(self):
        rows = [(float(t), 0, Op.READ, 3, 0, 100, 0.1) for t in range(10)]
        rows += [(t + 0.5, 0, Op.WRITE, 3, 0, 100, 0.1) for t in range(10)]
        phases = detect_phases(make_trace(rows), window_s=20.0)
        assert phases[0].label == "mixed"

    def test_empty_trace(self):
        assert detect_phases(make_trace([])) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            detect_phases(make_trace([]), window_s=0)
        with pytest.raises(ValueError):
            detect_phases(make_trace([]), dominance=0.4)


class TestPatterns:
    def test_sequential(self):
        kind = classify_offsets(np.array([0, 100, 200, 300]), np.array([100] * 4))
        assert kind is PatternKind.SEQUENTIAL

    def test_strided(self):
        offsets = np.array([0, 1000, 2000, 3000])
        sizes = np.array([100] * 4)
        assert classify_offsets(offsets, sizes) is PatternKind.STRIDED

    def test_irregular(self):
        offsets = np.array([0, 5000, 130, 99999, 42])
        sizes = np.array([10] * 5)
        assert classify_offsets(offsets, sizes) is PatternKind.IRREGULAR

    def test_too_short_is_single(self):
        assert classify_offsets(np.array([0, 10]), np.array([10, 10])) is PatternKind.SINGLE

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify_offsets(np.array([0]), np.array([1, 2]))

    @given(st.integers(2, 10_000), st.integers(4, 50))
    @settings(max_examples=50, deadline=None)
    def test_pure_sequences_always_classified(self, size, n):
        offsets = np.arange(n) * size
        sizes = np.full(n, size)
        assert classify_offsets(offsets, sizes) is PatternKind.SEQUENTIAL
        gappy = np.arange(n) * (2 * size)
        assert classify_offsets(gappy, sizes) is PatternKind.STRIDED

    def test_summary_groups_streams(self):
        rows = []
        for k in range(5):  # node 0 sequential on file 3
            rows.append((float(k), 0, Op.READ, 3, k * 100, 100, 0.01))
        for k, off in enumerate([0, 777, 31, 9000, 123]):  # node 1 irregular
            rows.append((float(k), 1, Op.READ, 3, off, 10, 0.01))
        summary = PatternSummary(make_trace(rows), kind="read")
        kinds = {(s.node, s.kind) for s in summary.streams}
        assert (0, PatternKind.SEQUENTIAL) in kinds
        assert (1, PatternKind.IRREGULAR) in kinds
        assert summary.fraction(PatternKind.SEQUENTIAL) == pytest.approx(0.5)


class TestStats:
    def test_distribution_of(self):
        d = Distribution.of(np.array([1.0, 2.0, 3.0, 4.0]))
        assert d.mean == 2.5
        assert d.minimum == 1.0 and d.maximum == 4.0
        assert d.median == 2.5

    @given(st.lists(st.floats() | st.sampled_from((-0.0, float("nan"), float("inf"))), min_size=1))
    @settings(max_examples=150, deadline=None)
    def test_median_matches_numpy_bit_for_bit(self, values):
        """Odd and even lengths, -0.0, NaN and +-inf included."""
        values = np.array(values)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            expected = float(np.median(values))
        got = median(values)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes() or (
            np.isnan(got) and np.isnan(expected)
        )

    def test_median_of_random_arrays(self):
        rng = np.random.default_rng(1995)
        for size in (1, 2, 3, 10, 101, 1000, 1001):
            values = rng.lognormal(size=size)
            assert median(values) == float(np.median(values))

    def test_analysis_leaves_numpy_ma_unimported(self):
        """np.median and np.unique import numpy.ma on first use (about 12 ms
        of every analysis); a spans-and-telemetry run through the reports,
        and a replay of one of its traces, must not."""
        code = (
            "import sys\n"
            "from repro.analysis import CharacterizationReport, critical_path\n"
            "from repro.core.registry import small_experiment\n"
            "from repro.telemetry import render_report\n"
            "result = small_experiment('htf', spans=True, telemetry=1.0).run()\n"
            "for trace in result.traces.values():\n"
            "    CharacterizationReport(trace).render()\n"
            "critical_path(result.spans.store).render()\n"
            "render_report(result.telemetry.as_dict())\n"
            "from repro.apps.workloads import small_machine\n"
            "from repro.core.replay import replay_trace\n"
            "replay_trace(result.traces['pscf'], machine_factory=small_machine)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_empty_distribution(self):
        d = Distribution.of(np.array([]))
        assert d.n == 0 and d.mean == 0.0

    def test_op_distributions(self):
        rows = [
            (0.0, 0, Op.WRITE, 3, 0, 100, 0.5),
            (1.0, 0, Op.WRITE, 3, 0, 300, 1.5),
        ]
        tr = make_trace(rows)
        assert op_size_distribution(tr, Op.WRITE).mean == 200
        assert op_duration_distribution(tr, Op.WRITE).mean == 1.0

    def test_bimodal_sample_scores_higher_than_unimodal(self):
        rng = np.random.default_rng(0)
        bimodal = np.concatenate([rng.normal(0, 1, 500), rng.normal(50, 1, 500)])
        unimodal = rng.normal(0, 1, 1000)
        assert bimodality_coefficient(bimodal) > 0.555
        assert bimodality_coefficient(unimodal) < 0.555

    def test_degenerate_samples(self):
        assert bimodality_coefficient(np.array([1.0, 1.0, 1.0, 1.0])) == 0.0
        assert bimodality_coefficient(np.array([1.0])) == 0.0


class TestAsciiRendering:
    def test_scatter_renders_nonempty(self):
        times = np.linspace(0, 100, 50)
        sizes = np.full(50, 2048.0)
        text = ascii_scatter(times, sizes)
        assert "*" in text
        assert "time (s)" in text

    def test_scatter_empty(self):
        assert "no operations" in ascii_scatter(np.array([]), np.array([]))
