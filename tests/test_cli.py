"""End-to-end CLI coverage: every subcommand through ``main([...])``."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main as cli_main


def _run_and_save(tmp_path, app="escat"):
    save_dir = str(tmp_path / "traces")
    assert cli_main(["run", app, "--scale", "small", "--save-dir", save_dir]) == 0
    return save_dir


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestSingleRunCommands:
    def test_run_save_characterize_round_trip(self, tmp_path, capsys):
        save_dir = _run_and_save(tmp_path)
        out = capsys.readouterr().out
        assert "Operation summary" in out and "trace saved" in out
        trace = os.path.join(save_dir, "escat.sddf")
        assert os.path.isfile(trace)
        assert cli_main(["characterize", trace]) == 0
        assert "ESCAT" in capsys.readouterr().out

    def test_compare_two_saved_traces(self, tmp_path, capsys):
        save_dir = _run_and_save(tmp_path, "escat")
        _run_and_save(tmp_path, "render")
        capsys.readouterr()
        assert cli_main(
            ["compare", f"{save_dir}/escat.sddf", f"{save_dir}/render.sddf"]
        ) == 0
        out = capsys.readouterr().out
        assert "ESCAT" in out and "RENDER" in out

    def test_replay_round_trip(self, tmp_path, capsys):
        save_dir = _run_and_save(tmp_path)
        capsys.readouterr()
        assert cli_main(
            ["replay", f"{save_dir}/escat.sddf", "--fs", "ppfs",
             "--policies", "escat_tuned", "--think", "none"]
        ) == 0
        assert "I/O node-time ratio" in capsys.readouterr().out

    def test_run_accepts_every_registered_preset(self, capsys):
        # two_level comes from the shared registry; the old CLI dict lacked it.
        assert cli_main(
            ["run", "escat", "--scale", "small", "--fs", "ppfs",
             "--policies", "two_level"]
        ) == 0
        assert "Operation summary" in capsys.readouterr().out

    def test_policies_without_ppfs_rejected(self):
        assert cli_main(["run", "escat", "--policies", "adaptive"]) == 2


#: Every command that reads a trace file, with ``{}`` for the path.
TRACE_COMMANDS = {
    "characterize": ["characterize", "{}"],
    "compare": ["compare", "{}", "{}"],
    "replay": ["replay", "{}"],
    "faults report": ["faults", "report", "{}"],
    "ingest convert": ["ingest", "convert", "{}", "out.jsonl"],
    "ingest replay": ["ingest", "replay", "{}"],
}


@pytest.mark.parametrize("kind", ("missing", "malformed"))
@pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
def test_bad_trace_file_is_a_typed_error(command, kind, tmp_path, capsys):
    """An unreadable trace ends in one stderr line and exit 2, not a
    traceback."""
    path = tmp_path / "bad.sddf"
    if kind == "malformed":
        path.write_text("this is not an SDDF stream\n")
    argv = [arg.format(path) for arg in TRACE_COMMANDS[command]]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad trace {str(path)!r}: ")
    assert "Traceback" not in err


class TestFaultsCommands:
    def test_show_plan_file_and_inline_json(self, tmp_path, capsys):
        from repro.cli import example_fault_plan

        plan = example_fault_plan()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert cli_main(["faults", "show", path]) == 0
        shown = capsys.readouterr().out
        assert shown == plan.describe() + "\n"
        assert cli_main(["faults", "show", plan.to_json()]) == 0
        assert capsys.readouterr().out == shown

    def test_show_bad_plan_is_usage_error(self, capsys):
        assert cli_main(["faults", "show", "{not json"]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("bad fault plan: ") and out.out == ""

    def test_example_round_trips(self, tmp_path, capsys):
        from repro.cli import example_fault_plan
        from repro.faults import FaultPlan

        assert cli_main(["faults", "example"]) == 0
        printed = FaultPlan.from_json(capsys.readouterr().out)
        path = str(tmp_path / "plan.json")
        assert cli_main(["faults", "example", "--out", path]) == 0
        assert capsys.readouterr().out == f"fault plan written: {path}\n"
        expected = example_fault_plan().canonical_json()
        assert printed.canonical_json() == FaultPlan.load(path).canonical_json() == expected


class TestTelemetryCommands:
    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory):
        save_dir = str(tmp_path_factory.mktemp("telemetry"))
        assert cli_main(["run", "escat", "--telemetry", "1", "--save-dir", save_dir]) == 0
        return os.path.join(save_dir, "escat.telemetry.jsonl")

    def test_report(self, capture, capsys):
        assert cli_main(["telemetry", "report", capture]) == 0
        out = capsys.readouterr().out
        assert out.startswith("telemetry: ") and "samples: " in out

    def test_show_lists_then_charts_a_column(self, capture, capsys):
        assert cli_main(["telemetry", "show", capture]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "columns (pick with --column):" and len(lines) > 1
        column = lines[1].strip()
        assert cli_main(["telemetry", "show", capture, "--column", column]) == 0
        assert capsys.readouterr().out.startswith(f"{column}  min=")

    def test_show_unknown_column_is_usage_error(self, capture, capsys):
        assert cli_main(["telemetry", "show", capture, "--column", "no.such"]) == 2
        assert capsys.readouterr().err.startswith("unknown column 'no.such'; pick from: ")


class TestCampaignCommands:
    ARGS = ["--apps", "escat", "--fs", "pfs,ppfs",
            "--policies", "none,escat_tuned", "--quiet"]

    def test_run_status_clean_cycle(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert cli_main(["campaign", "run", "--cache-dir", cache, "--name", "t",
                         *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "3 runs: 0 cached, 3 simulated, 0 failed" in out
        assert "manifest:" in out

        # Second invocation: all cache hits, nothing re-simulated.
        assert cli_main(["campaign", "run", "--cache-dir", cache, "--name", "t",
                         *self.ARGS]) == 0
        assert "3 runs: 3 cached, 0 simulated, 0 failed" in capsys.readouterr().out

        assert cli_main(["campaign", "status", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "3 run(s)" in out and "escat/small/ppfs/escat_tuned" in out

        assert cli_main(["campaign", "clean", "--cache-dir", cache]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert cli_main(["campaign", "status", "--cache-dir", cache]) == 0
        assert "0 run(s)" in capsys.readouterr().out

    def test_parallel_run_with_overrides_and_seeds(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert cli_main(
            ["campaign", "run", "--cache-dir", cache, "--quiet",
             "--apps", "escat", "--seeds", "1,2", "--jobs", "2",
             "--set", "iterations=2"]
        ) == 0
        assert "2 runs: 0 cached, 2 simulated" in capsys.readouterr().out
        manifest = os.path.join(cache, "campaign.manifest.json")
        with open(manifest) as fh:
            data = json.load(fh)
        assert {run["spec"]["seed"] for run in data["runs"]} == {1, 2}
        assert all(run["spec"]["overrides"] == {"iterations": 2}
                   for run in data["runs"])

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        assert cli_main(
            ["campaign", "run", "--cache-dir", str(tmp_path),
             "--apps", "escat", "--fs", "pfs", "--policies", "escat_tuned"]
        ) == 2
        assert "bad campaign grid" in capsys.readouterr().err

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        assert cli_main(
            ["campaign", "run", "--cache-dir", str(tmp_path),
             "--apps", "escat", "--fs", "ppfs", "--policies", "warp9"]
        ) == 2

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli_main(["campaign"])
