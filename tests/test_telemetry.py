"""Telemetry subsystem tests.

Four promises are pinned here:

* **registry semantics** — get-or-create identity, label keying, fixed
  log2 histogram buckets, and the exact merge laws (counter add, gauge
  max, histogram bucket-wise add);
* **sampler determinism** — samples land at exact cadence multiples,
  run twice the time series is bit-identical, and the background-event
  mechanism keeps ``env.run()`` from overshooting the application's
  final event;
* **zero perturbation** — with telemetry off *or on*, every small-scale
  app's traces match the checked-in golden hashes byte-for-byte;
* **lossless export** — the time series survives JSONL and CSV round
  trips with identical content hashes.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.campaign import CampaignRunner, CampaignSpec, Progress, RunSpec, run_metrics
from repro.core.registry import small_experiment
from repro.pablo import Op
from repro.ppfs.cache import CacheStats
from repro.ppfs.policies import PPFSPolicies
from repro.sim.core import Environment, Timeout
from repro.telemetry import (
    DEFAULT_CADENCE_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NBUCKETS,
    RunProfiler,
    Sampler,
    Telemetry,
    TimeSeries,
    from_jsonl,
    series_from_csv,
    series_to_csv,
    to_jsonl,
    to_prometheus,
)
from repro.telemetry.report import chartable_columns, render_chart, render_report
from repro.util import atomic_write_json, atomic_write_text

APPS = ("escat", "render", "htf")

_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_trace_hashes.json")
with open(_FIXTURE) as _fh:
    GOLDEN = json.load(_fh)


# -- registry ----------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", node="0") is not reg.counter("x", node="1")
        assert len(reg) == 3

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1", b="2") is reg.counter("x", b="2", a="1")

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_iteration_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", node="1")
        reg.counter("a", node="0")
        names = [(m.name, m.labels) for m in reg]
        assert names == sorted(names)

    def test_as_dict_from_dict_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c", node="0").inc(5)
        reg.gauge("g").set(2.5)
        hist = reg.histogram("h")
        for v in (0, 1, 100, 4096):
            hist.observe(v)
        back = MetricsRegistry.from_dict(reg.as_dict())
        assert back.as_dict() == reg.as_dict()


class TestHistogramBuckets:
    def test_log2_bucket_placement(self):
        hist = Histogram("h")
        # bucket i covers [2**(i-1), 2**i); bucket 0 holds non-positives.
        for value, bucket in ((0, 0), (-3, 0), (1, 1), (2, 2), (3, 2), (4, 3),
                              (1023, 10), (1024, 11), (81920, 17)):
            before = hist.counts[bucket]
            hist.observe(value)
            assert hist.counts[bucket] == before + 1, (value, bucket)

    def test_huge_value_clamps_to_last_bucket(self):
        hist = Histogram("h")
        hist.observe(2 ** 100)
        assert hist.counts[NBUCKETS - 1] == 1

    def test_count_and_sum(self):
        hist = Histogram("h")
        for v in (10, 20, 30):
            hist.observe(v)
        assert hist.count == 3
        assert hist.sum == 60

    def test_quantile_is_bucket_upper_edge(self):
        hist = Histogram("h")
        for _ in range(99):
            hist.observe(100)  # bucket 7, upper edge 128
        hist.observe(100000)  # bucket 17
        assert hist.quantile(0.5) == 128.0
        assert hist.quantile(1.0) == float(Histogram.bucket_upper(17))
        assert Histogram("empty").quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestMergeLaws:
    def test_counter_adds(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(4)
        assert a.merge(b).value == 7

    def test_gauge_keeps_max(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(3)
        b.set(2)
        assert a.merge(b).value == 3
        b.set(9)
        assert a.merge(b).value == 9

    def test_histogram_adds_bucketwise(self):
        a, b = Histogram("h"), Histogram("h")
        a.observe(5)
        b.observe(5)
        b.observe(1000)
        a.merge(b)
        assert a.count == 3 and a.counts[3] == 2 and a.counts[10] == 1

    def test_registry_merge_is_commutative_on_counters(self):
        def build(values):
            reg = MetricsRegistry()
            for name, v in values:
                reg.counter(name).inc(v)
            return reg

        ab = build([("x", 1), ("y", 2)]).merge(build([("x", 10), ("z", 4)]))
        ba = build([("x", 10), ("z", 4)]).merge(build([("x", 1), ("y", 2)]))
        assert ab.as_dict() == ba.as_dict()

    def test_registry_merge_empty_is_identity(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        before = reg.as_dict()
        reg.merge(MetricsRegistry())
        assert reg.as_dict() == before

    def test_registry_merge_kind_clash(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.gauge("x")
        with pytest.raises(TypeError):
            a.merge(b)

    def test_merged_run_registries(self):
        """Campaign use case: two runs' registries fold into one view."""
        r1 = small_experiment("escat", telemetry=2.0).run().telemetry.registry
        r2 = small_experiment("render", telemetry=2.0).run().telemetry.registry
        expected = r1.get("pfs.reads").value + r2.get("pfs.reads").value
        merged = MetricsRegistry().merge(r1).merge(r2)
        assert merged.get("pfs.reads").value == expected


# -- time series -------------------------------------------------------------
class TestTimeSeries:
    def test_grow_by_doubling_preserves_rows(self):
        series = TimeSeries(["t", "v"])
        for i in range(1000):  # > 3 doublings past the initial capacity
            series.append([float(i), float(i * 2)])
        assert len(series) == 1000
        assert series.column("v")[999] == 1998.0
        assert series.rows.shape == (1000, 2)

    def test_unique_columns_required(self):
        with pytest.raises(ValueError):
            TimeSeries(["a", "a"])
        with pytest.raises(ValueError):
            TimeSeries([])

    def test_content_hash_detects_any_change(self):
        a = TimeSeries.from_rows(["t"], [[1.0], [2.0]])
        b = TimeSeries.from_rows(["t"], [[1.0], [2.0]])
        assert a.content_hash() == b.content_hash()
        b.append([3.0])
        assert a.content_hash() != b.content_hash()

    def test_dict_roundtrip_is_exact(self):
        src = TimeSeries.from_rows(["t", "v"], [[0.1, 1e-300], [7.0, 2.0 / 3.0]])
        back = TimeSeries.from_dict(json.loads(json.dumps(src.as_dict())))
        assert back.content_hash() == src.content_hash()


# -- sampler -----------------------------------------------------------------
def _ticker(env, period, count):
    for _ in range(count):
        yield Timeout(env, period)


class TestSampler:
    def test_samples_at_exact_cadence_multiples(self):
        env = Environment()
        times = []
        env.process(_ticker(env, 0.3, 10))  # app ends at 3.0
        Sampler(env, 0.5, times.append).start()
        env.run()
        assert times == [0.5 * k for k in range(1, 6)]

    def test_no_clock_overshoot(self):
        env = Environment()
        env.process(_ticker(env, 0.3, 10))
        Sampler(env, 0.5, lambda now: None).start()
        env.run()
        # The armed-but-unfired trailing sample must not drag the clock.
        assert env.now == pytest.approx(3.0)

    def test_survives_sequential_runs(self):
        """Multi-program pipelines (HTF) keep sampling across env.run calls."""
        env = Environment()
        times = []
        sampler = Sampler(env, 0.5, times.append)
        sampler.start()
        env.process(_ticker(env, 0.3, 10))
        env.run()
        env.process(_ticker(env, 0.3, 10))  # second program: 3.0 -> 6.0
        env.run()
        assert times == [0.5 * k for k in range(1, 12)]
        assert sampler.samples == 11

    def test_start_is_idempotent(self):
        env = Environment()
        times = []
        sampler = Sampler(env, 0.5, times.append)
        sampler.start()
        sampler.start()
        env.process(_ticker(env, 0.4, 3))
        env.run()
        assert times == [0.5, 1.0]

    def test_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError):
            Sampler(Environment(), 0.0, lambda now: None)

    def test_background_only_queue_exits_immediately(self):
        env = Environment()
        Sampler(env, 1.0, lambda now: None).start()
        env.run()
        assert env.now == 0.0


# -- profiler ----------------------------------------------------------------
class TestRunProfiler:
    def _fake_clock(self):
        state = [0.0]

        def clock():
            state[0] += 1.0
            return state[0]

        return clock

    def test_sections_accumulate(self):
        prof = RunProfiler(clock=self._fake_clock())
        with prof.section("a"):
            pass
        prof.start("b")
        prof.stop("b")
        assert prof.seconds("a") == 1.0
        assert prof.seconds("b") == 1.0
        assert prof.total_seconds() == 2.0

    def test_stop_without_start_raises(self):
        with pytest.raises(ValueError):
            RunProfiler().stop("never")

    def test_dict_roundtrip_and_render(self):
        prof = RunProfiler(clock=self._fake_clock())
        prof.add("simulate", 1.5, count=3)
        back = RunProfiler.from_dict(prof.as_dict())
        assert back.as_dict() == prof.as_dict()
        assert "simulate" in prof.render()
        assert RunProfiler().render() == "(no profile sections)"


# -- zero perturbation (golden guard) ----------------------------------------
def _hashes(result):
    return {name: t.content_hash() for name, t in sorted(result.traces.items())}


class TestTelemetryIsInvisible:
    """Telemetry must never change what the application observes."""

    @pytest.mark.parametrize("app", APPS)
    def test_disabled_matches_golden(self, app):
        result = small_experiment(app, telemetry=None).run()
        assert result.telemetry is None
        assert _hashes(result) == GOLDEN[app], (
            f"{app} with telemetry=None drifted from the golden fixture — "
            f"the telemetry-off path is no longer zero-cost"
        )

    @pytest.mark.parametrize("app", APPS)
    def test_enabled_matches_golden(self, app):
        """Stronger: sampling ON leaves traces byte-identical too."""
        result = small_experiment(app, telemetry=0.5).run()
        assert result.telemetry.sampler.samples > 0
        assert _hashes(result) == GOLDEN[app], (
            f"{app} with sampling enabled perturbed the event stream — "
            f"a hook is no longer read-only"
        )

    def test_series_reproducible_run_to_run(self):
        def capture():
            result = small_experiment(
                "escat", filesystem="ppfs", policies=PPFSPolicies(), telemetry=0.5
            ).run()
            return result.telemetry.series.content_hash()

        assert capture() == capture()


# -- runtime -----------------------------------------------------------------
@pytest.fixture(scope="module")
def escat_telemetry():
    return small_experiment("escat", telemetry=1.0).run().telemetry


@pytest.fixture(scope="module")
def ppfs_telemetry():
    return small_experiment(
        "escat", filesystem="ppfs", policies=PPFSPolicies(), telemetry=1.0
    ).run().telemetry


def _trace_totals(traces) -> dict:
    """The ``pfs.*`` counters as the Pablo rows of ``traces`` count them."""
    ev = np.concatenate([t.events for t in traces.values()])
    op, nbytes = ev["op"], ev["nbytes"]

    def rows(*ops):
        return np.isin(op, [int(o) for o in ops])

    return {
        "pfs.reads": int(rows(Op.READ).sum()),
        "pfs.writes": int(rows(Op.WRITE).sum()),
        "pfs.seeks": int(rows(Op.SEEK).sum()),
        "pfs.opens": int(rows(Op.OPEN).sum()),
        "pfs.areads": int(rows(Op.AREAD).sum()),
        "pfs.read_bytes": int(nbytes[rows(Op.READ, Op.AREAD)].sum()),
        "pfs.write_bytes": int(nbytes[rows(Op.WRITE)].sum()),
    }


@pytest.mark.parametrize("fs", ("pfs",) + tuple(f"ppfs/{p}" for p in PPFSPolicies.presets()))
@pytest.mark.parametrize("app", ("escat", "render", "htf"))
def test_pfs_counters_match_trace_totals(app, fs):
    """Every traced op is counted once, whichever file system serves it."""
    fields = {}
    if fs != "pfs":
        fields = {"filesystem": "ppfs", "policies": PPFSPolicies.from_name(fs[5:])}
    result = small_experiment(app, telemetry=1.0, **fields).run()
    reg = result.telemetry.registry
    want = _trace_totals(result.traces)
    assert {name: reg.get(name).value for name in want} == want


class TestTelemetryRuntime:
    def test_live_counters_reach_registry(self, escat_telemetry):
        reg = escat_telemetry.registry
        assert reg.get("pfs.reads").value > 0
        assert reg.get("pfs.writes").value > 0
        assert reg.get("mesh.messages").value > 0
        assert reg.get("disk.requests").value > 0
        assert reg.get("ionode.request_bytes").count > 0

    def test_per_node_metrics_labeled(self, escat_telemetry):
        reg = escat_telemetry.registry
        served = [m for m in reg if m.name == "ionode.requests_served"]
        assert len(served) == 4  # small machine: 4 I/O nodes
        assert sum(m.value for m in served) == reg.get("disk.requests").value

    def test_series_columns_cover_every_layer(self, escat_telemetry):
        cols = escat_telemetry.series.columns
        assert "time_s" in cols and "mesh.bytes" in cols
        assert "ionode0.queue" in cols and "raid3.state" in cols
        assert "cache.blocks" not in cols  # PFS run: no policy columns

    def test_ppfs_columns_and_cache_metrics(self, ppfs_telemetry):
        cols = ppfs_telemetry.series.columns
        for col in ("cache.blocks", "server_cache.blocks",
                    "writebehind.backlog_bytes", "prefetch.inflight"):
            assert col in cols
        reg = ppfs_telemetry.registry
        assert reg.get("cache.hits", level="client") is not None
        assert reg.get("cache.hits", level="server") is not None

    def test_monotone_counters_in_series(self, escat_telemetry):
        reads = escat_telemetry.series.column("pfs.reads")
        assert all(b >= a for a, b in zip(reads, reads[1:]))

    def test_summary_shape(self, escat_telemetry):
        summary = escat_telemetry.summary()
        assert summary["samples"] == escat_telemetry.sampler.samples
        assert summary["cadence_s"] == 1.0
        assert summary["counters"]["pfs.reads"] > 0
        assert 0.0 <= summary["mean_busy_fraction"] <= 1.0
        assert summary["max_queue"] >= 0

    def test_profiler_has_harness_phases(self, escat_telemetry):
        profile = escat_telemetry.profiler.as_dict()
        for section in ("build.machine", "build.fs", "simulate",
                        "telemetry.attach", "simulate/telemetry.sample"):
            assert section in profile

    def test_finalize_idempotent(self, escat_telemetry):
        before = escat_telemetry.registry.as_dict()
        escat_telemetry.finalize()
        assert escat_telemetry.registry.as_dict() == before

    def test_experiment_spec_normalization(self):
        from repro.core.assembly import normalize_telemetry

        def built(**fields):
            return normalize_telemetry(small_experiment("escat", **fields).telemetry)

        assert isinstance(built(telemetry=True), Telemetry)
        assert built(telemetry=True).cadence_s == DEFAULT_CADENCE_S
        assert built(telemetry=2.5).cadence_s == 2.5
        assert built() is None
        assert built(telemetry=False) is None
        prepared = Telemetry(cadence_s=3.0)
        assert built(telemetry=prepared) is prepared


# -- exporters ---------------------------------------------------------------
class TestExporters:
    def test_jsonl_roundtrip_lossless(self, escat_telemetry, tmp_path):
        data = escat_telemetry.as_dict()
        path = str(tmp_path / "cap.telemetry.jsonl")
        text = to_jsonl(data, path)
        assert os.path.exists(path)
        back = from_jsonl(text)
        assert back["registry"] == data["registry"]
        assert back["meta"] == data["meta"]
        src = TimeSeries.from_dict(data["series"])
        dst = TimeSeries.from_dict(back["series"])
        assert dst.content_hash() == src.content_hash()

    def test_csv_roundtrip_lossless(self, escat_telemetry):
        series = escat_telemetry.series
        back = series_from_csv(series_to_csv(series))
        assert back.content_hash() == series.content_hash()

    def test_csv_rejects_empty(self):
        with pytest.raises(ValueError):
            series_from_csv("")

    def test_prometheus_format(self, escat_telemetry):
        text = to_prometheus(escat_telemetry.registry)
        assert "# TYPE repro_pfs_reads counter" in text
        assert "# TYPE repro_ionode_request_bytes histogram" in text
        assert 'le="+Inf"' in text
        assert 'repro_ionode_busy_s{node="0"}' in text
        # Cumulative bucket counts end at the histogram's total count.
        hist = escat_telemetry.registry.get("ionode.request_bytes")
        assert f'le="+Inf"}} {hist.count}' in text

    def test_report_and_chart_render(self, escat_telemetry):
        data = escat_telemetry.as_dict()
        report = render_report(data)
        assert "pfs.reads" in report and "telemetry:" in report
        series = escat_telemetry.series
        chart = render_chart(series, "mesh.bytes")
        assert "mesh.bytes" in chart
        flat = TimeSeries.from_rows(["time_s", "v"], [[1.0, 5.0], [2.0, 5.0]])
        flat_chart = render_chart(flat, "v")
        # Constant series render a mid-level bar at the held value.
        assert "▄" in flat_chart and "5" in flat_chart
        assert "time_s" not in chartable_columns(series.columns)


# -- atomic writes -----------------------------------------------------------
class TestAtomicWrite:
    def test_text_and_json(self, tmp_path):
        path = str(tmp_path / "sub" / "x.json")
        atomic_write_json(path, {"b": 1, "a": 2})
        with open(path) as fh:
            assert json.load(fh) == {"a": 2, "b": 1}
        atomic_write_text(path, "hello\n")
        with open(path) as fh:
            assert fh.read() == "hello\n"
        assert os.listdir(str(tmp_path / "sub")) == ["x.json"]  # no tmp leftovers


# -- campaign integration ----------------------------------------------------
class TestCampaignTelemetryAxis:
    def test_unset_axis_preserves_run_hashes(self):
        plain = RunSpec("escat", scale="small")
        assert RunSpec("escat", scale="small", telemetry=None).run_hash == plain.run_hash
        assert RunSpec("escat", scale="small", telemetry=0).run_hash == plain.run_hash
        assert "telemetry" not in plain.canonical()

    def test_set_axis_changes_hash_and_label(self):
        spec = RunSpec("escat", scale="small", telemetry=2.5)
        assert spec.run_hash != RunSpec("escat", scale="small").run_hash
        assert spec.canonical()["telemetry"] == 2.5
        assert "telem2.5" in spec.label()
        assert RunSpec.from_dict(spec.to_dict()).run_hash == spec.run_hash

    def test_true_means_the_default_cadence(self):
        spec = RunSpec("escat", scale="small", telemetry=True)
        assert spec.telemetry == DEFAULT_CADENCE_S
        assert f"telem{DEFAULT_CADENCE_S:g}" in spec.label()
        assert spec.run_hash == RunSpec("escat", scale="small", telemetry=DEFAULT_CADENCE_S).run_hash
        built = spec.build_experiment().run().telemetry
        assert built.cadence_s == DEFAULT_CADENCE_S

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError):
            RunSpec("escat", telemetry=-1.0)

    def test_axis_expands(self):
        spec = CampaignSpec(apps=("escat",), telemetry=(None, 1.0))
        runs = spec.expand()
        assert len(runs) == 2
        assert sorted((r.telemetry for r in runs), key=str) == [1.0, None]

    def test_metrics_carry_telemetry_summary(self):
        result = RunSpec("escat", scale="small", telemetry=1.0).build_experiment().run()
        metrics = run_metrics(result)
        assert metrics["telemetry"]["samples"] > 0
        assert metrics["telemetry"]["counters"]["pfs.reads"] > 0
        off = run_metrics(RunSpec("escat", scale="small").build_experiment().run())
        assert "telemetry" not in off

    def test_campaign_manifest_includes_summary(self, tmp_path):
        spec = CampaignSpec(apps=("escat",), telemetry=(1.0,), name="telem")
        report = CampaignRunner(spec, str(tmp_path), quiet=True).run()
        assert report.ok
        (rec,) = report.manifest.records
        assert rec.metrics["telemetry"]["cadence_s"] == 1.0
        with open(report.manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["runs"][0]["metrics"]["telemetry"]["samples"] > 0


class TestProgressThroughput:
    def test_line_gains_rate_and_eta(self):
        # A controllable clock: first call in __init__, rest in line().
        def make(values):
            vals = list(values)
            return lambda: vals.pop(0)

        p = Progress("x", 4, quiet=True, clock=make([0.0, 10.0]))
        p.counts["queued"] = 2
        p.counts["done"] = 2
        p.note_duration(4.0)
        p.note_duration(6.0)
        line = p.line()
        assert "0.20 runs/s" in line
        assert "eta 10s" in line

    def test_no_rate_before_first_completion(self):
        p = Progress("x", 2, quiet=True)
        assert "runs/s" not in p.line()


class TestCacheStatsDict:
    def test_roundtrip(self):
        stats = CacheStats()
        stats.hits, stats.misses, stats.evictions, stats.prefetch_hits = 5, 3, 2, 1
        back = CacheStats.from_dict(stats.as_dict())
        assert back.as_dict() == stats.as_dict()
        assert CacheStats.from_dict({}).as_dict() == CacheStats().as_dict()
