"""Campaign engine: specs, hashing, cache, runner, metrics, progress."""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    MODEL_VERSION,
    Progress,
    ResultCache,
    RunSpec,
    execute_run,
    run_metrics,
)
from repro.cli import main as cli_main
from repro.core import small_experiment
from repro.util import sanitize_filename


def _fail_always(spec, cache_root, fail_marker=None):
    raise RuntimeError("boom")


class TestRunSpecHash:
    def test_same_params_same_hash(self):
        a = RunSpec("escat", fs="ppfs", policy="escat_tuned", seed=3)
        b = RunSpec("escat", fs="ppfs", policy="escat_tuned", seed=3)
        assert a.run_hash == b.run_hash

    def test_every_field_changes_hash(self):
        base = RunSpec("escat", scale="small", fs="ppfs", policy=None, seed=1)
        variants = [
            RunSpec("render", scale="small", fs="ppfs", policy=None, seed=1),
            RunSpec("escat", scale="paper", fs="ppfs", policy=None, seed=1),
            RunSpec("escat", scale="small", fs="pfs", policy=None, seed=1),
            RunSpec("escat", scale="small", fs="ppfs", policy="adaptive", seed=1),
            RunSpec("escat", scale="small", fs="ppfs", policy=None, seed=2),
            RunSpec("escat", scale="small", fs="ppfs", policy=None, seed=1,
                    overrides=(("iterations", 2),)),
        ]
        hashes = {base.run_hash} | {v.run_hash for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_override_order_irrelevant(self):
        a = RunSpec("escat", overrides=(("iterations", 2), ("nodes", 4)))
        b = RunSpec("escat", overrides={"nodes": 4, "iterations": 2})
        assert a.run_hash == b.run_hash

    def test_dict_round_trip_preserves_hash(self):
        spec = RunSpec("htf", fs="ppfs", policy="two_level", seed=9,
                       overrides={"scf_passes": 1})
        again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.run_hash == spec.run_hash

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec("doom")
        with pytest.raises(ValueError):
            RunSpec("escat", scale="huge")
        with pytest.raises(ValueError):
            RunSpec("escat", policy="escat_tuned")  # needs fs='ppfs'
        with pytest.raises(ValueError):
            RunSpec("escat", fs="ppfs", policy="nonesuch")
        with pytest.raises(ValueError):
            RunSpec("escat", overrides={"iterations": [1, 2]})

    def test_build_experiment_applies_everything(self):
        spec = RunSpec("escat", fs="ppfs", policy="escat_tuned", seed=11,
                       overrides={"iterations": 2})
        exp = spec.build_experiment()
        assert exp.filesystem == "ppfs"
        assert exp.policies.write_behind and exp.policies.aggregation
        assert exp.config.iterations == 2
        assert exp.machine_factory().config.seed == 11


class TestCampaignSpec:
    def test_pfs_policy_combos_dropped(self):
        spec = CampaignSpec(apps=("escat",), filesystems=("pfs", "ppfs"),
                            policies=(None, "escat_tuned", "adaptive"))
        labels = sorted(r.label() for r in spec.expand())
        assert labels == [
            "escat/small/pfs",
            "escat/small/ppfs",
            "escat/small/ppfs/adaptive",
            "escat/small/ppfs/escat_tuned",
        ]

    def test_grid_size_and_dedup(self):
        spec = CampaignSpec(apps=("escat", "render", "htf"),
                            filesystems=("pfs", "ppfs"),
                            policies=(None, "escat_tuned", "adaptive"))
        runs = spec.expand()
        assert len(runs) == 12
        assert len({r.run_hash for r in runs}) == 12
        # Expansion order is deterministic.
        assert [r.run_hash for r in spec.expand()] == [r.run_hash for r in runs]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(apps=("escat",), filesystems=("pfs",),
                         policies=("escat_tuned",)).expand()

    def test_campaign_hash_ignores_listing_order(self):
        a = CampaignSpec(apps=("escat", "render"))
        b = CampaignSpec(apps=("render", "escat"))
        assert a.campaign_hash == b.campaign_hash


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = RunSpec("escat")
        assert not cache.has(spec.run_hash)
        result = spec.build_experiment().run()
        metrics = run_metrics(result)
        entry = cache.store(spec, result.traces, metrics)
        assert cache.has(spec.run_hash)
        assert os.path.isdir(entry)
        assert cache.load_metrics(spec.run_hash) == metrics
        assert cache.load_spec(spec.run_hash) == spec
        reloaded = cache.load_trace(spec.run_hash, "escat")
        assert len(reloaded) == len(result.traces["escat"])

    def test_model_version_tracks_the_golden_fixtures(self):
        """Regenerating the golden fixtures, or changing the span records
        or telemetry counters cached metrics summarize, means results
        changed: bump
        MODEL_VERSION (so cached entries go stale) and re-pin here."""
        path = os.path.join(os.path.dirname(__file__), "data", "golden_trace_hashes.json")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert (MODEL_VERSION, digest) == (
            3, "b7d753793a293bd0bfbbb8bf6c241f084f6d6259e99b7ec6e3b510a4db6c2779"
        )

    def test_incomplete_entry_is_not_a_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        os.makedirs(cache.entry_dir("deadbeef"))
        assert not cache.has("deadbeef")
        assert cache.entries() == []

    def test_clean_and_evict(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = RunSpec("render")
        result = spec.build_experiment().run()
        cache.store(spec, result.traces, run_metrics(result))
        assert cache.size_bytes() > 0
        assert cache.evict(spec.run_hash)
        assert not cache.evict(spec.run_hash)
        cache.store(spec, result.traces, run_metrics(result))
        assert cache.clean() == 1
        assert cache.entries() == []


class TestRunner:
    GRID = CampaignSpec(
        name="t",
        apps=("escat", "render"),
        filesystems=("pfs", "ppfs"),
        policies=(None, "escat_tuned"),
    )  # 6 runs

    def test_second_invocation_all_cache_hits(self, tmp_path):
        first = CampaignRunner(self.GRID, str(tmp_path), quiet=True).run()
        assert first.executed == 6 and first.cached == 0 and first.ok
        second = CampaignRunner(self.GRID, str(tmp_path), quiet=True).run()
        assert second.cached == 6 and second.executed == 0 and second.ok

    def test_truncated_metrics_is_recomputed(self, tmp_path, capsys):
        grid = CampaignSpec(name="trunc", apps=("escat", "render"))
        first = CampaignRunner(grid, str(tmp_path), quiet=True).run()
        assert first.ok and first.executed == 2
        victim = first.manifest.records[0].spec.run_hash
        path = os.path.join(ResultCache(str(tmp_path)).entry_dir(victim), "metrics.json")
        with open(path, "r+") as fh:
            fh.truncate(len(fh.read()) // 2)
        assert ResultCache(str(tmp_path)).load_metrics(victim) is None
        assert cli_main(["campaign", "status", "--cache-dir", str(tmp_path)]) == 0
        assert "unreadable metrics.json" in capsys.readouterr().out
        again = CampaignRunner(grid, str(tmp_path), quiet=True).run()
        assert again.ok and again.cached == 1 and again.executed == 1
        status = {rec.spec.run_hash: rec.status for rec in again.manifest.records}
        assert status[victim] == "done"
        by_hash = {rec.spec.run_hash: rec.metrics for rec in first.manifest.records}
        assert ResultCache(str(tmp_path)).load_metrics(victim) == by_hash[victim]

    def test_entry_from_another_model_version_is_recomputed(self, tmp_path, capsys):
        grid = CampaignSpec(name="stale", apps=("escat", "render"))
        first = CampaignRunner(grid, str(tmp_path), quiet=True).run()
        assert first.ok and first.executed == 2
        cache = ResultCache(str(tmp_path))
        old, unversioned = (rec.spec.run_hash for rec in first.manifest.records)
        assert cache.model_version(old) == MODEL_VERSION and not cache.stale(old)
        # One entry from an older model, one from before entries were versioned.
        with open(os.path.join(cache.entry_dir(old), "model_version"), "w") as fh:
            fh.write(f"{MODEL_VERSION - 1}\n")
        os.remove(os.path.join(cache.entry_dir(unversioned), "model_version"))
        assert cache.stale(old) and cache.stale(unversioned)
        assert cli_main(["campaign", "status", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"stale: model version {MODEL_VERSION - 1}, current {MODEL_VERSION}" in out
        assert f"stale: model version none, current {MODEL_VERSION}" in out
        again = CampaignRunner(grid, str(tmp_path), quiet=True).run()
        assert again.ok and again.cached == 0 and again.executed == 2
        assert not cache.stale(old) and not cache.stale(unversioned)
        # Same run hashes, same results: only the version moved.
        assert [r.spec.run_hash for r in again.manifest.records] == [old, unversioned]
        by_hash = {rec.spec.run_hash: rec.metrics for rec in first.manifest.records}
        assert cache.load_metrics(old) == by_hash[old]
        third = CampaignRunner(grid, str(tmp_path), quiet=True).run()
        assert third.cached == 2 and third.executed == 0

    def test_extending_grid_is_incremental(self, tmp_path):
        CampaignRunner(self.GRID, str(tmp_path), quiet=True).run()
        bigger = CampaignSpec(
            name="t",
            apps=("escat", "render"),
            filesystems=("pfs", "ppfs"),
            policies=(None, "escat_tuned", "adaptive"),
        )
        report = CampaignRunner(bigger, str(tmp_path), quiet=True).run()
        assert report.cached == 6 and report.executed == 2

    def test_parallel_matches_serial(self, tmp_path):
        grid = CampaignSpec(
            name="eq",
            apps=("escat", "render", "htf"),
            filesystems=("pfs", "ppfs"),
            policies=(None, "escat_tuned", "adaptive"),
        )
        assert len(grid.expand()) == 12
        par = CampaignRunner(grid, str(tmp_path / "par"), jobs=4, quiet=True).run()
        ser = CampaignRunner(grid, str(tmp_path / "ser"), jobs=1, quiet=True).run()
        assert par.executed == 12 and par.ok
        par_metrics = {r.run_hash: r.metrics for r in par.manifest.records}
        ser_metrics = {r.run_hash: r.metrics for r in ser.manifest.records}
        assert par_metrics == ser_metrics

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_after_injected_worker_failure(self, tmp_path, jobs):
        grid = CampaignSpec(name="flaky", apps=("escat",), filesystems=("pfs",))
        report = CampaignRunner(
            grid,
            str(tmp_path / "cache"),
            jobs=jobs,
            retries=1,
            quiet=True,
            fault_dir=str(tmp_path / "faults"),
        ).run()
        (rec,) = report.manifest.records
        assert rec.status == "done"
        assert rec.attempts == 2  # first attempt injected to fail
        assert report.ok and report.executed == 1

    def test_failure_after_retries_exhausted(self, tmp_path):
        grid = CampaignSpec(name="doomed", apps=("escat",), filesystems=("pfs",))
        report = CampaignRunner(
            grid, str(tmp_path), retries=2, quiet=True, worker=_fail_always
        ).run()
        (rec,) = report.manifest.records
        assert rec.status == "failed"
        assert rec.attempts == 3
        assert "boom" in rec.error
        assert not report.ok and report.failed == 1

    def test_manifest_written_and_loadable(self, tmp_path):
        grid = CampaignSpec(name="demo sweep: a/b", apps=("escat",))
        report = CampaignRunner(grid, str(tmp_path), quiet=True).run()
        assert os.path.basename(report.manifest_path) == "demo_sweep_a_b.manifest.json"
        with open(report.manifest_path) as fh:
            data = json.load(fh)
        assert data["counts"] == {"total": 1, "cached": 0, "done": 1, "failed": 0}
        assert data["runs"][0]["hash"] == grid.expand()[0].run_hash
        assert data["version"]
        assert "makespan_s" in data["runs"][0]["metrics"]

    def test_progress_lines_emitted(self, tmp_path):
        stream = io.StringIO()
        grid = CampaignSpec(name="p", apps=("escat",))
        CampaignRunner(grid, str(tmp_path), progress_stream=stream).run()
        lines = stream.getvalue().splitlines()
        assert any("1 running" in line for line in lines)
        assert "1 done" in lines[-1]
        assert all(line.startswith("[campaign p]") for line in lines)

    def test_summary_mentions_every_run(self, tmp_path):
        report = CampaignRunner(self.GRID, str(tmp_path), quiet=True).run()
        text = report.summary()
        for spec in self.GRID.expand():
            assert spec.run_hash in text
        assert "6 runs" in text


class TestMetrics:
    def test_run_metrics_matches_trace(self):
        result = small_experiment("escat").run()
        metrics = run_metrics(result)
        trace = result.traces["escat"]
        assert metrics["events"] == len(trace)
        assert metrics["traces"]["escat"]["events"] == len(trace)
        assert metrics["io_node_time_s"] == pytest.approx(
            float(trace.events["duration"].sum())
        )
        assert metrics["makespan_s"] >= trace.duration - 1e-9
        json.dumps(metrics)  # JSON-safe

    def test_htf_aggregates_three_programs(self):
        result = small_experiment("htf").run()
        metrics = run_metrics(result)
        assert sorted(metrics["traces"]) == ["pargos", "pscf", "psetup"]
        assert metrics["events"] == sum(
            t["events"] for t in metrics["traces"].values()
        )


class TestExecuteRun:
    def test_worker_publishes_to_cache(self, tmp_path):
        spec = RunSpec("render")
        metrics = execute_run(spec, str(tmp_path))
        cache = ResultCache(str(tmp_path))
        assert cache.has(spec.run_hash)
        assert cache.load_metrics(spec.run_hash) == metrics

    def test_fail_marker_fails_exactly_once(self, tmp_path):
        spec = RunSpec("escat")
        marker = str(tmp_path / "marker")
        with pytest.raises(RuntimeError):
            execute_run(spec, str(tmp_path / "c"), fail_marker=marker)
        metrics = execute_run(spec, str(tmp_path / "c"), fail_marker=marker)
        assert metrics["events"] > 0


class TestProgress:
    def test_counts_and_finished(self):
        stream = io.StringIO()
        p = Progress("x", 2, stream=stream)
        p.move("queued", "running", "a")
        p.move("running", "done", "a")
        p.move("queued", "cached", "b")
        assert p.finished
        assert p.counts == {
            "queued": 0, "running": 0, "cached": 1, "done": 1, "failed": 0,
        }
        assert "+a done" in stream.getvalue()

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            Progress("x", 1, quiet=True).move("queued", "lost")


class TestSanitizeFilename:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("table1_escat_ops", "table1_escat_ops"),
            ("a/b: c", "a_b_c"),
            ("../../etc/passwd", "etc_passwd"),
            (".hidden", "hidden"),
            ("", "artifact"),
            ("///", "artifact"),
        ],
    )
    def test_cases(self, raw, expected):
        assert sanitize_filename(raw) == expected

    def test_emit_returns_sanitized_path(self, tmp_path, monkeypatch, capsys):
        from benchmarks import _common

        monkeypatch.setattr(_common, "OUTPUT_DIR", str(tmp_path))
        path = _common.emit("fig 2: read/timeline", "hello")
        assert path == str(tmp_path / "fig_2_read_timeline.txt")
        assert open(path).read() == "hello\n"
