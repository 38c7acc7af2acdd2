"""Tape library and HSM tests, including the ESCAT checkpoint-reuse
workflow across the storage hierarchy."""

import pytest

from repro.archive import (
    HSM,
    AgeBasedPolicy,
    MigrationPolicy,
    TapeLibrary,
    TapeParams,
    WatermarkPolicy,
)
from repro.pablo import Op
from repro.pfs import FileNotFound, PFS, PFSError
from tests.conftest import drive, make_machine


def make_hsm(policy=None, tape_params=None):
    machine = make_machine()
    fs = PFS(machine)
    tape = TapeLibrary(machine.env, tape_params)
    return machine, fs, HSM(fs, tape, policy)


class TestTapeLibrary:
    def test_transfer_time_components(self):
        machine = make_machine()
        tape = TapeLibrary(machine.env, TapeParams(mount_s=40, locate_s=5, rate_bps=1e6))
        assert tape.transfer_time(2_000_000) == pytest.approx(47.0)

    def test_drive_contention_serializes(self):
        machine = make_machine()
        tape = TapeLibrary(machine.env, TapeParams(drives=1, mount_s=10, locate_s=0, rate_bps=1e6))
        drive(machine, tape.write(1_000_000), tape.write(1_000_000))
        assert machine.now == pytest.approx(22.0)
        assert tape.mounts == 2

    def test_parallel_drives_overlap(self):
        machine = make_machine()
        tape = TapeLibrary(machine.env, TapeParams(drives=2, mount_s=10, locate_s=0, rate_bps=1e6))
        drive(machine, tape.write(1_000_000), tape.write(1_000_000))
        assert machine.now == pytest.approx(11.0)

    def test_byte_accounting(self):
        machine = make_machine()
        tape = TapeLibrary(machine.env)
        drive(machine, tape.write(500), tape.read(200))
        assert tape.bytes_written == 500
        assert tape.bytes_read == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            TapeParams(drives=0)
        machine = make_machine()
        with pytest.raises(ValueError):
            TapeLibrary(machine.env).transfer_time(-1)


class TestHSM:
    def test_migrate_moves_data_off_disk(self):
        machine, fs, hsm = make_hsm()
        hsm.ensure("/cold", size=1_000_000)
        before = hsm.disk_resident_bytes()

        def go():
            yield from hsm.migrate("/cold")

        drive(machine, go())
        assert hsm.is_migrated("/cold")
        assert hsm.disk_resident_bytes() == before - 1_000_000
        assert hsm.tape.bytes_written == 1_000_000

    def test_open_stages_migrated_file_back(self):
        machine, fs, hsm = make_hsm()
        hsm.ensure("/cold", size=3_000_000)

        def go():
            yield from hsm.migrate("/cold")
            t0 = machine.env.now
            fd = yield from hsm.open(0, "/cold")
            stage_penalty = machine.env.now - t0
            count = yield from hsm.read(0, fd, 1000)
            yield from hsm.close(0, fd)
            return stage_penalty, count

        ((penalty, count),) = drive(machine, go())
        assert not hsm.is_migrated("/cold")
        assert count == 1000
        # Mount + locate + 3 MB at 1.5 MB/s ~ 57 s.
        assert penalty > hsm.tape.params.mount_s
        assert hsm.stats.stage_ins == 1

    def test_open_of_resident_file_pays_no_tape_cost(self):
        machine, fs, hsm = make_hsm()
        hsm.ensure("/hot", size=1_000_000)

        def go():
            t0 = machine.env.now
            fd = yield from hsm.open(0, "/hot")
            dt = machine.env.now - t0
            yield from hsm.close(0, fd)
            return dt

        (dt,) = drive(machine, go())
        assert dt < 1.0
        assert hsm.tape.mounts == 0

    def test_migrate_open_file_refused(self):
        machine, fs, hsm = make_hsm()
        hsm.ensure("/busy")

        def go():
            yield from hsm.open(0, "/busy")
            yield from hsm.migrate("/busy")

        with pytest.raises(PFSError):
            drive(machine, go())

    def test_migrate_missing_raises(self):
        machine, fs, hsm = make_hsm()

        def go():
            yield from hsm.migrate("/ghost")

        with pytest.raises(FileNotFound):
            drive(machine, go())

    def test_double_migrate_is_idempotent(self):
        machine, fs, hsm = make_hsm()
        hsm.ensure("/cold", size=100)

        def go():
            yield from hsm.migrate("/cold")
            yield from hsm.migrate("/cold")

        drive(machine, go())
        assert hsm.stats.migrations == 1

    def test_passthrough_operations(self):
        machine, fs, hsm = make_hsm()

        def go():
            fd = yield from hsm.open(0, "/f", create=True)
            yield from hsm.write(0, fd, 500)
            yield from hsm.seek(0, fd, 0)
            count = yield from hsm.read(0, fd, 500)
            yield from hsm.close(0, fd)
            return count

        (count,) = drive(machine, go())
        assert count == 500


class TestPolicies:
    def test_base_policy_migrates_nothing(self):
        machine, fs, hsm = make_hsm(MigrationPolicy())
        hsm.ensure("/a", size=100)

        def go():
            yield from hsm.apply_policy()

        drive(machine, go())
        assert hsm.stats.migrations == 0

    def test_age_based_picks_only_cold_files(self):
        machine, fs, hsm = make_hsm(AgeBasedPolicy(age_s=100.0))
        hsm.ensure("/old", size=10)
        hsm.ensure("/new", size=10)

        def go():
            fd = yield from hsm.open(0, "/old")
            yield from hsm.close(0, fd)
            yield machine.env.timeout(200.0)
            fd = yield from hsm.open(0, "/new")  # fresh access
            yield from hsm.close(0, fd)
            yield from hsm.apply_policy()

        drive(machine, go())
        assert hsm.is_migrated("/old")
        assert not hsm.is_migrated("/new")

    def test_watermark_drains_to_low_mark(self):
        policy = WatermarkPolicy(
            capacity_bytes=1_000_000, high_fraction=0.8, low_fraction=0.4
        )
        machine, fs, hsm = make_hsm(policy)
        for i in range(10):
            hsm.ensure(f"/f{i}", size=100_000)
            hsm.last_access[f"/f{i}"] = float(i)  # f0 is the coldest

        def go():
            yield from hsm.apply_policy()

        drive(machine, go())
        assert hsm.disk_resident_bytes() <= 400_000
        # Oldest files went first.
        assert hsm.is_migrated("/f0") and hsm.is_migrated("/f1")
        assert not hsm.is_migrated("/f9")

    def test_watermark_noop_below_high_mark(self):
        policy = WatermarkPolicy(capacity_bytes=10_000_000)
        machine, fs, hsm = make_hsm(policy)
        hsm.ensure("/small", size=1000)

        def go():
            yield from hsm.apply_policy()

        drive(machine, go())
        assert hsm.stats.migrations == 0

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            WatermarkPolicy(high_fraction=0.4, low_fraction=0.6)
        with pytest.raises(ValueError):
            WatermarkPolicy(capacity_bytes=0)


class TestEscatCheckpointAcrossHierarchy:
    """The §2 parametric-study workflow through the storage levels: the
    quadrature checkpoint migrates to tape between runs; the restart run
    pays the stage-in penalty on first open."""

    def test_restart_after_archive_pays_stage_in(self):
        from dataclasses import replace

        from repro.apps import Escat, small_escat
        from repro.pablo import InstrumentedPFS

        machine = make_machine()
        fs = PFS(machine)
        tape = TapeLibrary(machine.env)
        hsm = HSM(fs, tape)
        instrumented = InstrumentedPFS(hsm)

        cfg = replace(small_escat(8), restart=True)
        app = Escat(machine=machine, fs=instrumented, config=cfg)
        # Between runs, the site's HSM migrated the staging files.
        def archive():
            yield from hsm.migrate("/escat/quad0")
            yield from hsm.migrate("/escat/quad1")

        drive(machine, archive())
        t0 = machine.env.now
        trace = app.run()
        elapsed = machine.env.now - t0
        assert hsm.stats.stage_ins == 2
        # The run paid at least the two tape recalls.
        assert elapsed >= 2 * tape.params.mount_s / tape.params.drives
        # The recall is part of the traced open: the OPEN rows that
        # staged a file in span the tape mount.
        opens = trace.events[trace.events["op"] == int(Op.OPEN)]
        assert opens["duration"].max() >= tape.params.mount_s
        assert trace.content_hash()[:12] == "3b836f829427"
