"""Core pipeline tests: Experiment harness, reports, cross-app comparison."""

import pytest

from repro.analysis import PatternKind
from repro.core import (
    APPLICATIONS,
    CharacterizationReport,
    CrossAppComparison,
    Experiment,
    paper_experiment,
    small_experiment,
)
from repro.ppfs import PPFSPolicies


class TestExperiment:
    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            Experiment(app="doom")

    def test_unknown_filesystem_rejected(self):
        with pytest.raises(ValueError):
            Experiment(app="escat", filesystem="nfs")

    def test_policies_require_ppfs(self):
        with pytest.raises(ValueError):
            Experiment(app="escat", policies=PPFSPolicies())

    def test_wrong_config_type_rejected(self):
        from repro.apps import RenderConfig

        exp = small_experiment("escat")
        exp.config = RenderConfig()
        with pytest.raises(TypeError):
            exp.run()

    def test_escat_small_run(self):
        result = small_experiment("escat").run()
        assert len(result.trace) > 100
        assert result.trace.application == "ESCAT"

    def test_render_small_run(self):
        result = small_experiment("render").run()
        assert result.trace.application == "RENDER"

    def test_htf_small_run_three_traces(self):
        result = small_experiment("htf").run()
        assert set(result.traces) == {"psetup", "pargos", "pscf"}
        with pytest.raises(ValueError):
            result.trace  # ambiguous for multi-trace experiments

    def test_ppfs_filesystem_option(self):
        result = small_experiment(
            "escat", filesystem="ppfs", policies=PPFSPolicies.escat_tuned()
        ).run()
        assert result.fs.writeback is not None
        assert result.fs.writeback.writes_submitted > 0

    def test_registry_lists_all_apps(self):
        assert set(APPLICATIONS) == {"escat", "render", "htf", "checkpoint", "trace"}

    def test_registry_unknown_app(self):
        with pytest.raises(KeyError):
            small_experiment("quake")
        with pytest.raises(KeyError):
            paper_experiment("quake")

    def test_determinism_same_seed_same_trace(self):
        t1 = small_experiment("escat").run().trace
        t2 = small_experiment("escat").run().trace
        assert (t1.events == t2.events).all()

    def test_capture_overhead_plumbs_through(self):
        base = small_experiment("escat").run()
        slow = small_experiment("escat")
        slow.capture_overhead_s = 0.005
        perturbed = slow.run()
        assert perturbed.machine.now > base.machine.now

    def test_htf_honours_capture_overhead_and_observers(self):
        """Every HTF program is captured through the run's capture
        factory: the overhead perturbs it and observers see its events."""
        base = small_experiment("htf").run()

        class Tally:
            events = 0

            def observe(self, *event):
                self.events += 1

        tally = Tally()
        slow = small_experiment("htf", capture_overhead_s=0.005, observers=[tally]).run()
        assert slow.traces["pscf"].duration > base.traces["pscf"].duration
        assert tally.events == sum(len(t) for t in slow.traces.values())
        assert all(len(t) for t in slow.traces.values())


class TestCharacterizationReport:
    def test_sections_present(self):
        result = small_experiment("escat").run()
        report = CharacterizationReport(result.trace)
        text = report.render()
        assert "Operation summary" in text
        assert "Request sizes" in text
        assert "Phases:" in text
        assert "Observations:" in text
        assert "Per-file access:" in text

    def test_observations_derived_from_data(self):
        result = small_experiment("escat").run()
        report = CharacterizationReport(result.trace)
        obs = " ".join(report.observations())
        assert "data volume" in obs
        assert "sequential" in obs

    def test_metric_helpers(self):
        from repro.pablo import Op

        result = small_experiment("escat").run()
        report = CharacterizationReport(result.trace)
        assert report.mean_size(Op.WRITE) > 0
        assert report.mean_duration(Op.WRITE) > 0
        assert 0 <= report.read_bimodality() <= 1


class TestCrossAppComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        traces = {"ESCAT": small_experiment("escat").run().trace,
                  "RENDER": small_experiment("render").run().trace}
        htf = small_experiment("htf").run()
        traces["HTF-pscf"] = htf.traces["pscf"]
        return CrossAppComparison(traces)

    def test_summaries_cover_all_apps(self, comparison):
        assert {s.name for s in comparison.summaries} == {
            "ESCAT",
            "RENDER",
            "HTF-pscf",
        }

    def test_request_size_spread_is_wide(self, comparison):
        lo, hi = comparison.request_size_spread()
        assert hi / lo > 100  # bytes to megabytes (§8)

    def test_no_single_characterization(self, comparison):
        assert comparison.no_single_characterization()

    def test_whole_file_fraction_high(self, comparison):
        assert comparison.whole_file_fraction("RENDER") > 0.8

    def test_render_output_mentions_spread(self, comparison):
        text = comparison.render()
        assert "span" in text
        assert "ESCAT" in text and "RENDER" in text

    def test_empty_comparison_rejected(self):
        with pytest.raises(ValueError):
            CrossAppComparison({})

    def test_render_is_read_dominated_escat_lighter(self, comparison):
        by_name = {s.name: s for s in comparison.summaries}
        assert by_name["RENDER"].read_volume_fraction > 0.8
        assert by_name["HTF-pscf"].read_volume_fraction > 0.9
