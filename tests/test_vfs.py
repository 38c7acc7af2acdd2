"""Tests for repro.vfs: the bring-your-own-app file front-end.

Covers the file API's Python-semantics contract (modes, seek/tell,
append, truncate, line iteration, async reads, error translation), the
SPMD harness (barriers, per-node programs, crash propagation), the
composition knobs (PPFS policies, telemetry, burst buffer, faults), and
the determinism invariants: run-twice traces are byte-identical and the
built-in apps' golden hashes are untouched by the subsystem existing.
"""

from __future__ import annotations

import pytest

from repro.ppfs.policies import PPFSPolicies
from repro.vfs import SimMachine
from repro.vfs.filesystem import _parse_mode


def run_single(fn, **kwargs):
    sm = SimMachine(scale="small", **kwargs)
    sm.run_program(fn)
    return sm.run()


class TestModeParsing:
    def test_basic_modes(self):
        assert _parse_mode("rb") == {
            "base": "r", "text": False, "readable": True, "writable": False,
            "append": False, "create": False, "exclusive": False, "truncate": False,
        }
        assert _parse_mode("w")["truncate"] and _parse_mode("w")["text"]
        assert _parse_mode("a+")["readable"] and _parse_mode("a+")["append"]
        assert _parse_mode("xb")["exclusive"] and _parse_mode("xb")["create"]

    @pytest.mark.parametrize("bad", ["", "rw", "bt", "rbb", "q", "wb+x"])
    def test_invalid_modes(self, bad):
        with pytest.raises(ValueError):
            _parse_mode(bad)


class TestFileSemantics:
    def test_write_read_seek_tell(self):
        def prog(fs):
            with fs.open("/d/a", "wb") as f:
                assert f.write(b"0123456789") == 10
                assert f.tell() == 10
            with fs.open("/d/a", "rb") as f:
                assert f.read(4) == b"0123"
                assert f.tell() == 4
                assert f.seek(2) == 2
                assert f.read() == b"23456789"
                f.seek(-3, 2)
                assert f.read() == b"789"
                f.seek(0)
                f.seek(5, 1)
                assert f.read(1) == b"5"

        run_single(prog)

    def test_text_mode_lines_and_iteration(self):
        def prog(fs):
            with fs.open("/d/t.txt", "w") as f:
                f.write("one\ntwo\n")
                f.writelines(["three\n", "four"])
            with fs.open("/d/t.txt", "r") as f:
                assert f.readline() == "one\n"
                assert list(f) == ["two\n", "three\n", "four"]
            with fs.open("/d/t.txt", "r") as f:
                assert f.readlines() == ["one\n", "two\n", "three\n", "four"]

        run_single(prog)

    def test_readline_peek_interacts_with_tell_and_seek(self):
        def prog(fs):
            with fs.open("/d/t.txt", "w") as f:
                f.write("alpha\nbeta\n")
            with fs.open("/d/t.txt", "r") as f:
                assert f.readline() == "alpha\n"
                assert f.tell() == 6  # logical position despite lookahead
                f.seek(0)
                assert f.readline() == "alpha\n"

        run_single(prog)

    def test_append_mode(self):
        def prog(fs):
            with fs.open("/d/log", "wb") as f:
                f.write(b"head")
            with fs.open("/d/log", "ab") as f:
                f.write(b"-tail")
            with fs.open("/d/log", "rb") as f:
                assert f.read() == b"head-tail"

        run_single(prog)

    def test_truncate(self):
        def prog(fs):
            with fs.open("/d/a", "wb") as f:
                f.write(b"0123456789")
            with fs.open("/d/a", "r+b") as f:
                assert f.truncate(4) == 4
                f.seek(0)
                assert f.read() == b"0123"
            with fs.open("/d/a", "r+b") as f:
                f.seek(2)
                assert f.truncate() == 2  # default: current position

        run_single(prog)

    def test_w_truncates_existing(self):
        def prog(fs):
            with fs.open("/d/a", "wb") as f:
                f.write(b"long old content")
            with fs.open("/d/a", "wb") as f:
                f.write(b"new")
            assert fs.size("/d/a") == 3
            assert fs.cat_file("/d/a") == b"new"

        run_single(prog)

    def test_readinto_and_binary_only(self):
        def prog(fs):
            fs.pipe_file("/d/b", b"abcdef")
            with fs.open("/d/b", "rb") as f:
                buf = bytearray(4)
                assert f.readinto(buf) == 4
                assert bytes(buf) == b"abcd"
            with fs.open("/d/b", "r") as f:
                with pytest.raises(TypeError):
                    f.readinto(bytearray(2))

        run_single(prog)

    def test_errors_translate_to_builtins(self):
        def prog(fs):
            with pytest.raises(FileNotFoundError):
                fs.open("/missing", "rb")
            fs.pipe_file("/d/x", b"1")
            with pytest.raises(FileExistsError):
                fs.open("/d/x", "xb")

        run_single(prog)

    def test_closed_file_rejects_io(self):
        def prog(fs):
            f = fs.open("/d/c", "wb")
            f.close()
            f.close()  # idempotent
            with pytest.raises(ValueError):
                f.write(b"x")
            with pytest.raises(ValueError):
                f.flush()

        run_single(prog)

    def test_mode_checks(self):
        def prog(fs):
            with fs.open("/d/m", "wb") as f:
                with pytest.raises(ValueError):
                    f.read(1)
            with fs.open("/d/m", "rb") as f:
                with pytest.raises(ValueError):
                    f.write(b"x")

        run_single(prog)

    def test_async_read(self):
        def prog(fs):
            fs.pipe_file("/d/a", b"payload-bytes")
            with fs.open("/d/a", "rb", iomode="async") as f:
                handle = f.read_async(7)
                fs.compute(0.01)
                assert handle.wait() == b"payload"

        run_single(prog)

    def test_namespace_ops(self):
        def prog(fs):
            fs.pipe_file("/d/one", b"1")
            assert fs.exists("/d/one")
            fs.rename("/d/one", "/d/two")
            assert not fs.exists("/d/one") and fs.exists("/d/two")
            assert "/d/two" in fs.listdir()
            fs.unlink("/d/two")
            assert not fs.exists("/d/two")

        run_single(prog)

    def test_iomode_validation(self):
        def prog(fs):
            with pytest.raises(ValueError):
                fs.open("/d/a", "wb", iomode="quantum")

        run_single(prog)


class TestHarness:
    def test_spmd_barrier_and_cross_reads(self):
        def prog(fs):
            me = fs.node
            with fs.open(f"/out/p{me}", "wb") as f:
                f.write(bytes([me]) * 512)
            fs.barrier()
            peer = (me + 1) % fs.nodes
            with fs.open(f"/out/p{peer}", "rb") as f:
                assert f.read() == bytes([peer]) * 512

        sm = SimMachine(scale="small")
        sm.run_program(prog, nodes=range(4))
        result = sm.run()
        assert result.makespan_s > 0
        assert result.trace.nodes >= 4

    def test_programs_emit_pablo_trace(self):
        def prog(fs):
            with fs.open("/out/f", "wb") as f:
                f.write(b"x" * 2048)
            with fs.open("/out/f", "rb") as f:
                f.read()

        result = run_single(prog)
        ops = {int(row[2]) for row in result.trace.events.tolist()}
        assert ops  # open/close/read/write all recorded
        assert len(result.trace) >= 6
        # The trace composes with the analysis pipeline unchanged.
        from repro.analysis.report import CharacterizationReport

        text = CharacterizationReport(result.trace).render()
        assert "Operation summary" in text

    def test_crash_propagates_original_exception(self):
        def prog(fs):
            raise KeyError("inner")

        sm = SimMachine(scale="small")
        sm.run_program(prog)
        with pytest.raises(KeyError):
            sm.run()

    def test_compute_advances_clock(self):
        def prog(fs):
            before = fs.now
            fs.compute(1.5)
            assert fs.now == pytest.approx(before + 1.5)

        run_single(prog)

    def test_stage_and_mark_burst_tier(self):
        sm = SimMachine(scale="small", burst_buffer=True)
        sm.stage("/in/data", b"abc" * 100)
        sm.mark_burst_tier("/in/data")

        def prog(fs):
            with fs.open("/in/data", "rb") as f:
                assert f.read(3) == b"abc"

        sm.run_program(prog)
        sm.run()

    def test_validation(self):
        sm = SimMachine(scale="small")
        with pytest.raises(ValueError):
            sm.run_program(lambda fs: None, node=10_000)
        sm.run_program(lambda fs: None, node=0)
        with pytest.raises(ValueError):
            sm.run_program(lambda fs: None, node=0)  # duplicate
        with pytest.raises(TypeError):
            sm.run_program("not callable")
        with pytest.raises(ValueError):
            SimMachine(scale="galactic")
        with pytest.raises(ValueError):
            SimMachine(policies=PPFSPolicies())  # policies need ppfs

    def test_run_twice_rejected(self):
        sm = SimMachine(scale="small")
        sm.run_program(lambda fs: None)
        sm.run()
        with pytest.raises(RuntimeError):
            sm.run()
        with pytest.raises(RuntimeError):
            sm.run_program(lambda fs: None, node=1)

    def test_ppfs_with_policies(self):
        def prog(fs):
            with fs.open("/d/f", "wb") as f:
                f.write(b"z" * 4096)

        result = run_single(
            prog,
            filesystem="ppfs",
            policies=PPFSPolicies.from_name("escat_tuned"),
        )
        assert len(result.trace) > 0

    def test_telemetry_composes(self):
        def prog(fs):
            with fs.open("/d/f", "wb") as f:
                f.write(b"z" * 1024)

        result = run_single(prog, telemetry=True)
        assert result.telemetry is not None

    def test_spans_record_one_op_span_per_event(self):
        def prog(fs):
            with fs.open(f"/d/f{fs.node}", "wb") as f:
                f.write(b"z" * 100_000)
            with fs.open(f"/d/f{fs.node}", "rb") as f:
                f.seek(1024)
                f.read(4096)

        sm = SimMachine(scale="small", spans=True)
        sm.run_program(prog, nodes=range(4))
        result = sm.run()
        ops = [s for s in result.spans.store.iter_spans() if s["kind"].startswith("op.")]
        assert len(result.trace) > 0
        assert len(ops) == len(result.trace)
        assert result.makespan_s == result.machine.env.now > 0


class TestDeterminism:
    @staticmethod
    def _workload(fs):
        me = fs.node
        with fs.open(f"/w/part{me}", "wb", iomode="record", record_size=256) as f:
            for i in range(8):
                f.write(bytes([i]) * 256)
        fs.barrier()
        with fs.open(f"/w/part{(me + 1) % fs.nodes}", "rb") as f:
            for line in range(4):
                f.read(512)

    def _run(self):
        sm = SimMachine(scale="small")
        sm.run_program(self._workload, nodes=range(4))
        return sm.run()

    def test_run_twice_byte_identical(self):
        a, b = self._run(), self._run()
        assert a.trace.content_hash() == b.trace.content_hash()
        assert a.makespan_s == b.makespan_s

    def test_content_tracking_off_same_timing(self):
        def prog(fs):
            with fs.open("/d/f", "wb") as f:
                f.write(b"q" * 1024)
            with fs.open("/d/f", "rb") as f:
                data = f.read()
                assert len(data) == 1024

        with_content = run_single(prog)
        sm = SimMachine(scale="small", track_content=False)
        sm.run_program(prog)
        without = sm.run()
        # Payloads are synthetic without tracking, but the event stream
        # and all timings are identical.
        assert with_content.trace.content_hash() == without.trace.content_hash()
