"""Machine-model tests: disk, RAID-3, I/O node, mesh, nodes, frame buffer."""

import pytest

from repro.machine import (
    CALTECH_CCSF,
    ComputeNode,
    Disk,
    DiskParams,
    FrameBuffer,
    IONode,
    Mesh,
    MeshParams,
    Paragon,
    ParagonConfig,
    Raid3Array,
    Raid3Params,
)
from tests.conftest import drive, make_machine


class TestDisk:
    def test_zero_distance_seek_is_free(self):
        disk = Disk()
        assert disk.seek_time(0) == 0.0

    def test_seek_time_grows_with_distance(self):
        disk = Disk()
        near = disk.seek_time(1_000_000)
        far = disk.seek_time(1_000_000_000)
        assert 0 < near < far <= disk.params.max_seek_s

    def test_full_stroke_seek_hits_max(self):
        disk = Disk()
        assert disk.seek_time(disk.params.capacity_bytes) == pytest.approx(
            disk.params.max_seek_s
        )

    def test_service_advances_head(self):
        disk = Disk()
        disk.service_time(1000, 500)
        assert disk.head_pos == 1500

    def test_sequential_requests_cheaper_than_random(self):
        seq = Disk()
        t_seq = seq.service_time(0, 4096) + seq.service_time(4096, 4096)
        rnd = Disk()
        t_rnd = rnd.service_time(0, 4096) + rnd.service_time(600_000_000, 4096)
        assert t_seq < t_rnd

    def test_transfer_time_scales_with_bytes(self):
        d1, d2 = Disk(), Disk()
        small = d1.service_time(0, 1024)
        large = d2.service_time(0, 1024 * 1024)
        expected_delta = (1024 * 1024 - 1024) / d1.params.transfer_rate_bps
        assert large - small == pytest.approx(expected_delta, rel=1e-6)

    def test_zero_byte_request_pays_no_rotation(self):
        disk = Disk()
        t = disk.service_time(0, 0)
        assert t == pytest.approx(disk.params.overhead_s)

    def test_rotational_latency_from_rpm(self):
        params = DiskParams(rpm=6000)
        assert params.full_rotation_s == pytest.approx(0.010)
        assert params.avg_rotational_latency_s == pytest.approx(0.005)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DiskParams(rpm=0)
        with pytest.raises(ValueError):
            DiskParams(min_seek_s=0.02, max_seek_s=0.01)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            Disk().seek_time(-1)


class TestRaid3:
    def test_capacity_excludes_parity(self):
        params = Raid3Params()
        assert params.capacity_bytes == 4 * params.disk.capacity_bytes

    def test_aggregate_transfer_rate(self):
        params = Raid3Params()
        assert params.transfer_rate_bps == 4 * params.disk.transfer_rate_bps

    def test_large_transfer_faster_than_single_disk(self):
        nbytes = 4 * 1024 * 1024
        raid_t = Raid3Array().service_time(0, nbytes)
        disk_t = Disk().service_time(0, nbytes)
        assert raid_t < disk_t

    def test_small_request_dominated_by_positioning(self):
        array = Raid3Array()
        t = array.service_time(500_000_000, 2048)
        transfer = (2048 / 4) / array.params.disk.transfer_rate_bps
        assert t > 10 * transfer  # positioning dwarfs the transfer

    def test_reads_and_writes_cost_the_same(self):
        a, b = Raid3Array(), Raid3Array()
        assert a.service_time(0, 65536, is_write=False) == pytest.approx(
            b.service_time(0, 65536, is_write=True)
        )

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Raid3Params(data_disks=0)


class TestIONode:
    def test_serialization_of_concurrent_requests(self, machine):
        ion = machine.ionodes[0]
        values = drive(
            machine,
            ion.serve(0, 65536, False),
            ion.serve(65536, 65536, False),
        )
        # Both served; busy time is the sum of two service times.
        assert ion.requests_served == 2
        assert ion.busy_time == pytest.approx(sum(values))
        assert machine.now >= ion.busy_time  # serialized, no overlap

    def test_queue_length_visible(self, machine):
        ion = machine.ionodes[0]

        def burst():
            procs = [
                machine.env.process(ion.serve(i * 65536, 65536, True))
                for i in range(5)
            ]
            yield machine.env.timeout(0.001)  # dispatcher has taken one
            assert ion.queue_length == 4  # one in service, four queued
            yield machine.env.all_of(procs)

        drive(machine, burst())

    def test_extra_service_charged(self, machine):
        ion = machine.ionodes[0]
        (base,) = drive(machine, ion.serve(0, 1024, False))
        m2 = make_machine()
        ion2 = m2.ionodes[0]
        (with_extra,) = drive(m2, ion2.serve(0, 1024, False, 0.5))
        assert with_extra == pytest.approx(base + 0.5)

    def test_visit_occupies_server(self, machine):
        ion = machine.ionodes[0]
        drive(machine, ion.visit(0.25), ion.visit(0.25))
        assert machine.now == pytest.approx(0.5)

    def test_bytes_accounted(self, machine):
        ion = machine.ionodes[0]
        drive(machine, ion.serve(0, 1000, True))
        assert ion.bytes_served == 1000

    def test_price_matches_a_served_request(self, machine):
        """price() is the charge submit applies: same service, counters
        and head motion as a request served through the queue."""
        ion = machine.ionodes[0]
        (served,) = drive(machine, ion.serve(4096, 8192, True, 0.25))
        other = make_machine().ionodes[0]
        assert other.price(4096, 8192, True, 0.25) == served
        assert (other.requests_served, other.bytes_served) == (1, 8192)
        assert other.array._arm.head_pos == ion.array._arm.head_pos
        assert other.busy_time == 0.0  # charging is not queueing

    def test_reserve_is_fifo_behind_the_horizon(self, machine):
        ion = machine.ionodes[0]
        assert ion.reserve(1.0, 0.5) == 1.5  # idle: starts on arrival
        assert ion.reserve(1.2, 0.5) == 2.0  # busy: queues behind 1.5
        assert ion.reserve(3.0, 0.25) == 3.25
        assert ion.horizon == 3.25
        assert ion.busy_time == 1.25

    def test_hold_horizon_queues_later_submits(self, machine):
        """A horizon moved outside the kernel holds discrete work back."""
        ion = machine.ionodes[0]
        ion.hold_horizon(ion.horizon)  # unmoved: nothing armed
        assert not ion.busy
        since = ion.horizon
        ion.reserve(0.0, 2.0)
        ion.hold_horizon(since)
        assert ion.busy
        drive(machine, ion.visit(0.5))
        assert machine.now == pytest.approx(2.5)
        assert not ion.busy


class TestMesh:
    def test_coords_row_major(self):
        mesh = Mesh(None, MeshParams(width=4, height=2))
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(5) == (1, 1)

    def test_hops_manhattan(self):
        mesh = Mesh(None, MeshParams(width=4, height=4))
        assert mesh.hops(0, 15) == 6  # (0,0) -> (3,3)
        assert mesh.hops(3, 3) == 0

    def test_self_message_is_free(self):
        mesh = Mesh(None, MeshParams())
        assert mesh.message_time(5, 5, 10_000) == 0.0

    def test_message_time_components(self):
        p = MeshParams(width=4, height=4)
        mesh = Mesh(None, p)
        t = mesh.message_time(0, 1, 70_000_000)
        assert t == pytest.approx(p.latency_s + p.per_hop_s + 1.0)

    def test_broadcast_scales_logarithmically(self):
        mesh = Mesh(None, MeshParams(width=16, height=8))
        t64 = mesh.broadcast_time(0, 64, 1024)
        t128 = mesh.broadcast_time(0, 128, 1024)
        assert t128 == pytest.approx(t64 * 7 / 6)  # log2: 6 vs 7 stages

    def test_broadcast_single_node_free(self):
        mesh = Mesh(None, MeshParams())
        assert mesh.broadcast_time(0, 1, 1_000_000) == 0.0

    def test_gather_dominated_by_root_link(self):
        p = MeshParams(width=16, height=8)
        mesh = Mesh(None, p)
        t = mesh.gather_time(0, 128, 8192)
        assert t >= 127 * 8192 / p.bandwidth_bps

    def test_out_of_range_node_rejected(self):
        mesh = Mesh(None, MeshParams(width=2, height=2))
        with pytest.raises(ValueError):
            mesh.coords(4)

    def test_transfer_process(self, machine):
        drive(machine, machine.mesh.transfer(0, 1, 70_000_000))
        assert machine.now > 0.9  # ~1 second at 70 MB/s


class TestComputeNodeAndFrameBuffer:
    def test_compute_advances_clock_and_accounts(self, machine):
        node = machine.nodes[0]
        drive(machine, node.compute(2.5))
        assert machine.now == 2.5
        assert node.compute_time == 2.5

    def test_compute_flops_conversion(self, machine):
        node = machine.nodes[0]
        drive(machine, node.compute_flops(node.params.sustained_flops))
        assert machine.now == pytest.approx(1.0)

    def test_negative_compute_rejected(self, machine):
        with pytest.raises(ValueError):
            drive(machine, machine.nodes[0].compute(-1))

    def test_mailbox_send_recv(self, machine):
        a, b = machine.nodes[0], machine.nodes[1]
        got = []

        def receiver():
            got.append((yield b.recv()))

        a.send(b, "hello")
        drive(machine, receiver())
        assert got == ["hello"]

    def test_framebuffer_streams_at_bandwidth(self, machine):
        fb = machine.framebuffer
        (duration,) = drive(machine, fb.write_frame(983040))
        expected = fb.params.per_frame_overhead_s + 983040 / fb.params.bandwidth_bps
        assert duration == pytest.approx(expected)
        assert fb.frames_written == 1 and fb.bytes_written == 983040

    def test_framebuffer_serializes_frames(self, machine):
        fb = machine.framebuffer
        drive(machine, fb.write_frame(983040), fb.write_frame(983040))
        assert machine.now == pytest.approx(
            2 * (fb.params.per_frame_overhead_s + 983040 / fb.params.bandwidth_bps)
        )


class TestParagonAssembly:
    def test_default_config_matches_study_partition(self):
        m = Paragon()
        assert len(m.nodes) == 128
        assert len(m.ionodes) == 16

    def test_caltech_config(self):
        m = Paragon(CALTECH_CCSF)
        assert len(m.nodes) == 512
        assert m.total_io_capacity() == 16 * 4 * 1_200_000_000

    def test_nodes_exceeding_mesh_rejected(self):
        with pytest.raises(ValueError):
            ParagonConfig(compute_nodes=64, mesh=MeshParams(width=4, height=4))

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            ParagonConfig(compute_nodes=0)
        with pytest.raises(ValueError):
            ParagonConfig(io_nodes=0)

    def test_run_delegates_to_environment(self):
        m = make_machine()
        m.env.timeout(3.0)
        m.run()
        assert m.now == 3.0


class TestMeshProcessHelpers:
    def test_broadcast_helper_elapses_broadcast_time(self, machine):
        expected = machine.mesh.broadcast_time(0, 8, 1_000_000)
        drive(machine, machine.mesh.broadcast(0, 8, 1_000_000))
        assert machine.now == pytest.approx(expected)

    def test_gather_helper_elapses_gather_time(self, machine):
        expected = machine.mesh.gather_time(0, 8, 4096)
        drive(machine, machine.mesh.gather(0, 8, 4096))
        assert machine.now == pytest.approx(expected)

    def test_zero_byte_messages_cost_latency_only(self, machine):
        p = machine.mesh.params
        t = machine.mesh.message_time(0, 1, 0)
        assert t == pytest.approx(p.latency_s + machine.mesh.hops(0, 1) * p.per_hop_s)
