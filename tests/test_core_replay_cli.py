"""Trace replay and CLI tests."""

import numpy as np
import pytest

from repro.analysis import OperationTable
from repro.apps.workloads import small_machine
from repro.cli import main as cli_main
from repro.core import replay_trace, small_experiment
from repro.pablo import Op
from repro.ppfs import PPFSPolicies
from tests.conftest import make_machine


@pytest.fixture(scope="module")
def escat_small():
    return small_experiment("escat").run()


class TestReplay:
    def test_replays_all_data_ops(self, escat_small):
        result = replay_trace(
            escat_small.trace, machine_factory=make_machine, think_time="none"
        )
        orig = OperationTable(escat_small.trace)
        new = OperationTable(result.trace)
        for label in ("Read", "Write", "Seek"):
            assert new.row(label).count == orig.row(label).count, label
            assert new.row(label).volume == orig.row(label).volume, label

    def test_think_time_preserved_keeps_makespan(self, escat_small):
        preserved = replay_trace(
            escat_small.trace, machine_factory=make_machine, think_time="preserve"
        )
        fast = replay_trace(
            escat_small.trace, machine_factory=make_machine, think_time="none"
        )
        assert fast.trace.duration < 0.5 * preserved.trace.duration
        # Preserved replay has roughly the original span.
        assert preserved.makespan_ratio == pytest.approx(1.0, abs=0.3)

    def test_replay_on_ppfs_cuts_io_time(self, escat_small):
        tuned = replay_trace(
            escat_small.trace,
            machine_factory=make_machine,
            filesystem="ppfs",
            policies=PPFSPolicies.escat_tuned(),
            think_time="none",
        )
        plain = replay_trace(
            escat_small.trace, machine_factory=make_machine, think_time="none"
        )
        tuned_io = float(tuned.trace.events["duration"].sum())
        plain_io = float(plain.trace.events["duration"].sum())
        assert tuned_io < 0.8 * plain_io
        # The policy's real target — write+seek time — collapses.
        def write_seek(trace):
            t = OperationTable(trace)
            return t.row("Write").node_time_s + t.row("Seek").node_time_s

        assert write_seek(tuned.trace) < write_seek(plain.trace) / 3

    def test_async_pairs_replayed(self):
        render = small_experiment("render").run()
        result = replay_trace(
            render.trace, machine_factory=make_machine, think_time="none"
        )
        new = OperationTable(result.trace)
        orig = OperationTable(render.trace)
        assert new.row("AsynchRead").count == orig.row("AsynchRead").count
        assert new.row("I/O Wait").count == orig.row("I/O Wait").count

    def test_offsets_restored(self, escat_small):
        result = replay_trace(
            escat_small.trace, machine_factory=make_machine, think_time="none"
        )
        orig = escat_small.trace.events
        new = result.trace.events
        ow = orig[orig["op"] == int(Op.WRITE)]
        nw = new[new["op"] == int(Op.WRITE)]
        # Same multiset of (file, offset, size) write targets.
        key = lambda a: sorted(zip(a["file_id"], a["offset"], a["nbytes"]))  # noqa: E731
        assert key(ow) == key(nw)

    def test_invalid_think_time(self, escat_small):
        with pytest.raises(ValueError):
            replay_trace(escat_small.trace, think_time="wormhole")

    @pytest.mark.parametrize(
        "think,ppfs,prefix",
        [
            ("preserve", False, "357c2590007a"),
            ("none", False, "90afa4246fc3"),
            ("anchor", False, "d27df71a0700"),
            ("none", True, "6ef6b2b996df"),
        ],
    )
    def test_replay_hashes_pinned(self, escat_small, think, ppfs, prefix):
        """Replayed event content is pinned per think-time mode and file
        system, so a rewrite of the replay path cannot drift silently."""
        fields = {"filesystem": "ppfs", "policies": PPFSPolicies()} if ppfs else {}
        result = replay_trace(
            escat_small.trace, machine_factory=small_machine, think_time=think,
            **fields,
        )
        assert result.trace.application == "ESCAT-replay"
        assert result.trace.content_hash()[:12] == prefix

    def test_trace_wider_than_machine_rejected_up_front(self, escat_small):
        with pytest.raises(ValueError, match="trace uses 8 nodes, machine has 4"):
            replay_trace(escat_small.trace, machine_factory=lambda: small_machine(nodes=4))


class TestCli:
    def test_run_and_characterize_roundtrip(self, tmp_path, capsys):
        save_dir = str(tmp_path / "traces")
        assert cli_main(["run", "escat", "--scale", "small", "--save-dir", save_dir]) == 0
        out = capsys.readouterr().out
        assert "Operation summary" in out
        assert "trace saved" in out

        assert cli_main(["characterize", f"{save_dir}/escat.sddf"]) == 0
        out = capsys.readouterr().out
        assert "ESCAT" in out

    def test_run_with_ppfs_policies(self, capsys):
        assert cli_main(
            ["run", "escat", "--scale", "small", "--fs", "ppfs",
             "--policies", "escat_tuned"]
        ) == 0
        assert "Operation summary" in capsys.readouterr().out

    def test_policies_without_ppfs_rejected(self, capsys):
        assert cli_main(
            ["run", "escat", "--scale", "small", "--policies", "adaptive"]
        ) == 2

    def test_compare(self, tmp_path, capsys):
        save_dir = str(tmp_path / "traces")
        cli_main(["run", "escat", "--scale", "small", "--save-dir", save_dir])
        cli_main(["run", "render", "--scale", "small", "--save-dir", save_dir])
        capsys.readouterr()
        assert cli_main(
            ["compare", f"{save_dir}/escat.sddf", f"{save_dir}/render.sddf"]
        ) == 0
        out = capsys.readouterr().out
        assert "ESCAT" in out and "RENDER" in out

    def test_replay_command(self, tmp_path, capsys):
        save_dir = str(tmp_path / "traces")
        cli_main(["run", "escat", "--scale", "small", "--save-dir", save_dir])
        capsys.readouterr()
        assert cli_main(
            ["replay", f"{save_dir}/escat.sddf", "--fs", "ppfs",
             "--policies", "escat_tuned", "--think", "none"]
        ) == 0
        out = capsys.readouterr().out
        assert "I/O node-time ratio" in out

    def test_replay_policies_without_ppfs_rejected(self, tmp_path, capsys):
        save_dir = str(tmp_path / "traces")
        cli_main(["run", "escat", "--scale", "small", "--save-dir", save_dir])
        capsys.readouterr()
        assert cli_main(
            ["replay", f"{save_dir}/escat.sddf", "--policies", "escat_tuned"]
        ) == 2
        assert ("policies require filesystem='ppfs', got filesystem='pfs'"
                in capsys.readouterr().err)

    def test_htf_run_saves_three_traces(self, tmp_path, capsys):
        save_dir = str(tmp_path / "traces")
        assert cli_main(["run", "htf", "--scale", "small", "--save-dir", save_dir]) == 0
        import os

        assert sorted(os.listdir(save_dir)) == [
            "pargos.sddf", "pscf.sddf", "psetup.sddf",
        ]


class TestCliErrors:
    def test_characterize_missing_file_is_usage_error(self, capsys):
        assert cli_main(["characterize", "/no/such/trace.sddf"]) == 2
        assert capsys.readouterr().err.startswith("bad trace '/no/such/trace.sddf': ")

    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["teleport"])

    def test_unknown_app_exits(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "doom"])
