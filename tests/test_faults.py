"""Tests for repro.faults: injection, degraded RAID-3, retry/failover.

Covers the subsystem layer by layer — error taxonomy, fault plans,
array and node state machines, the retry attempt loop, PPFS cache
invalidation on restart — then end to end: a mid-run disk failure plus
a node outage must *complete* the run through retry/failover (no hang,
no silent data loss), leave FAULT / RETRY / DEGRADED rows in the trace,
survive an SDDF round trip into the same resilience report, and be
byte-reproducible given the same seed and plan.
"""

import hashlib

import pytest

import repro.pfs as pfs_pkg
from repro.analysis.phases import detect_phases
from repro.analysis.resilience import ResilienceReport
from repro.apps.workloads import small_machine
from repro.core.registry import small_experiment
from repro.faults import (
    DiskFailure,
    FaultInjector,
    FaultKind,
    FaultPlan,
    NodeOutage,
    RequestDrops,
)
from repro.machine.ionode import IONode
from repro.machine.raid import Raid3Array
from repro.pablo.events import Op
from repro.pablo.trace import Trace
from repro.pfs.errors import (
    DataLoss,
    DegradedService,
    FatalIOError,
    IONodeUnavailable,
    IOTimeout,
    PFSError,
    RetryBudgetExceeded,
    TransientIOError,
)
from repro.pfs.retry import RetryPolicy
from repro.ppfs.cache import BlockCache
from repro.ppfs.policies import PPFSPolicies
from repro.sim.core import Environment


# -- error taxonomy ------------------------------------------------------------
class TestErrorHierarchy:
    def test_transient_fatal_split(self):
        for exc in (IOTimeout, IONodeUnavailable, DegradedService):
            assert issubclass(exc, TransientIOError)
            assert not issubclass(exc, FatalIOError)
        for exc in (RetryBudgetExceeded, DataLoss):
            assert issubclass(exc, FatalIOError)
            assert not issubclass(exc, TransientIOError)
        assert issubclass(TransientIOError, PFSError)
        assert issubclass(FatalIOError, PFSError)

    def test_exported_from_package(self):
        for name in (
            "TransientIOError",
            "FatalIOError",
            "IOTimeout",
            "IONodeUnavailable",
            "DegradedService",
            "RetryBudgetExceeded",
            "DataLoss",
            "RetryPolicy",
        ):
            assert hasattr(pfs_pkg, name), name


# -- fault plans ---------------------------------------------------------------
class TestFaultPlan:
    def _plan(self):
        return FaultPlan(
            disk_failures=(
                DiskFailure(ionode=1, time_s=2.5),
                DiskFailure(ionode=0, time_s=1.0, mode="fail_slow", duration_s=2.0),
            ),
            outages=(NodeOutage(ionode=2, start_s=3.0, duration_s=0.8),),
            drops=(RequestDrops(probability=0.1, start_s=1.0, duration_s=2.0),),
            retry=RetryPolicy(max_attempts=5),
        )

    def test_empty(self):
        assert FaultPlan().empty
        assert not self._plan().empty

    def test_json_roundtrip(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_json(plan.canonical_json()) == plan

    def test_save_load_roundtrip(self, tmp_path):
        plan = self._plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_canonical_json_is_stable(self):
        assert self._plan().canonical_json() == self._plan().canonical_json()

    def test_validate_rejects_missing_nodes(self):
        with pytest.raises(ValueError, match="ionode 9"):
            FaultPlan(
                disk_failures=(DiskFailure(ionode=9, time_s=1.0),)
            ).validate(n_ionodes=4)
        with pytest.raises(ValueError, match="ionode 7"):
            FaultPlan(outages=(NodeOutage(7, 1.0, 1.0),)).validate(4)
        with pytest.raises(ValueError, match="ionode 5"):
            FaultPlan(
                drops=(RequestDrops(probability=0.5, ionodes=(5,)),)
            ).validate(4)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            DiskFailure(ionode=0, time_s=1.0, mode="fail_slow")  # no duration
        with pytest.raises(ValueError):
            NodeOutage(ionode=0, start_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            RequestDrops(probability=0.0)
        with pytest.raises(ValueError):
            RequestDrops(probability=1.5)

    def test_describe_lists_faults_in_time_order(self):
        text = self._plan().describe()
        lines = text.splitlines()
        assert len(lines) == 4
        times = [float(line.split("s", 1)[0].lstrip("t=")) for line in lines]
        assert times == sorted(times)
        assert FaultPlan().describe() == "empty plan (no faults)"


# -- RAID-3 state machine ------------------------------------------------------
class TestRaid3Faults:
    def test_degraded_costs_more_than_healthy(self):
        healthy, degraded = Raid3Array(), Raid3Array()
        degraded.fail_disk()
        assert degraded.state == "degraded"
        t_h = healthy.service_time(0, 65536)
        t_d = degraded.service_time(0, 65536)
        assert t_d > t_h

    def test_rebuild_restores_healthy_service(self):
        array = Raid3Array()
        array.fail_disk()
        array.start_rebuild()
        assert array.state == "rebuilding"
        array.complete_rebuild()
        assert array.state == "healthy"
        twin = Raid3Array()
        assert array.service_time(4096, 8192) == twin.service_time(4096, 8192)

    def test_second_disk_loss_is_data_loss(self):
        array = Raid3Array()
        array.fail_disk()
        array.fail_disk()
        assert array.state == "failed"
        with pytest.raises(DataLoss):
            array.service_time(0, 4096)

    def test_fail_slow_scales_and_clears(self):
        slow, twin = Raid3Array(), Raid3Array()
        slow.set_slow(3.0)
        assert slow.service_time(0, 65536) > twin.service_time(0, 65536)
        slow.clear_slow()
        assert slow.service_time(0, 65536) == twin.service_time(0, 65536)

    def test_invalid_transitions(self):
        array = Raid3Array()
        with pytest.raises(ValueError):
            array.start_rebuild()  # healthy -> rebuilding is not a thing
        with pytest.raises(ValueError):
            array.complete_rebuild()
        with pytest.raises(ValueError):
            array.set_slow(0.5)


# -- I/O node fault state ------------------------------------------------------
class _Draws:
    """Scripted RNG: returns the given values in order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class TestIONodeFaults:
    def test_crash_fails_inflight_and_pending(self):
        env = Environment()
        ion = IONode(env, 0)
        events = [ion.submit(i * 4096, 4096, False) for i in range(3)]
        env.run(until=0.001)  # first request enters service
        ion.crash()
        env.run()
        assert not ion.up
        assert all(ev.processed and not ev.ok for ev in events)
        assert all(isinstance(ev.value, IONodeUnavailable) for ev in events)
        assert ion.failed_requests == 3

    def test_down_node_rejects_new_requests(self):
        env = Environment()
        ion = IONode(env, 0)
        ion.crash()
        ev = ion.submit(0, 4096, False)
        env.run()
        assert not ev.ok and isinstance(ev.value, IONodeUnavailable)

    def test_restart_wait_and_listeners(self):
        env = Environment()
        ion = IONode(env, 0)
        ion.crash()
        waited = ion.restart_wait()
        assert waited is ion.restart_wait()  # one shared event while down
        seen = []
        ion.on_restart(lambda node: seen.append(node.index))
        ion.restart()
        env.run()
        assert ion.up and waited.processed and waited.ok
        assert seen == [0]
        # Once up, restart_wait fires immediately.
        assert ion.restart_wait().triggered

    def test_restart_accumulates_downtime_and_serves_again(self):
        env = Environment()
        ion = IONode(env, 0)
        ion.crash()
        env.run(until=0.5)
        ion.restart()
        assert ion.downtime == pytest.approx(0.5)
        ev = ion.submit(0, 4096, False)
        env.run()
        assert ev.ok and ion.requests_served == 1

    def test_drop_window_is_deterministic(self):
        env = Environment()
        ion = IONode(env, 0)
        # First arrival dropped (0.01 < 0.5), second served (0.9 >= 0.5).
        ion.set_drop(0.5, _Draws([0.01, 0.9]), detect_timeout_s=0.05)
        dropped = ion.submit(0, 4096, False)
        served = ion.submit(4096, 4096, False)
        env.run()
        assert not dropped.ok and isinstance(dropped.value, IOTimeout)
        assert served.ok
        assert ion.dropped_requests == 1
        ion.clear_drop()
        ev = ion.submit(0, 4096, False)
        env.run()
        assert ev.ok

    def test_reconfig_window_rejects_data_requests(self):
        env = Environment()
        ion = IONode(env, 0)
        ion.begin_reconfig(0.1)
        rejected = ion.submit(0, 4096, False)
        control = ion.submit_control(0.001)  # control ops pass through
        env.run()
        assert not rejected.ok and isinstance(rejected.value, DegradedService)
        assert control.ok
        # Past the window, service resumes.
        env.run(until=0.2)
        after = ion.submit(0, 4096, False)
        env.run()
        assert after.ok


# -- PPFS server-cache invalidation on restart --------------------------------
class TestServerCacheInvalidation:
    def test_block_cache_clear(self):
        cache = BlockCache(16, policy="lru")
        cache.insert_range(1, 0, 7)
        assert cache.lookup_range(1, 0, 7)
        assert cache.clear() == 8
        assert not cache.lookup_range(1, 0, 7)

    def test_restart_clears_server_cache(self):
        exp = small_experiment(
            "escat",
            filesystem="ppfs",
            policies=PPFSPolicies.from_name("two_level"),
            faults=FaultPlan(outages=(NodeOutage(ionode=1, start_s=3.0,
                                                 duration_s=0.5),)),
        )
        result = exp.run()
        # The cache attached to the restarted node was dropped at least
        # once (clear() registered via on_restart), and the run completed.
        fs = result.fs
        stats = fs.server_cache(1).stats
        assert result.traces
        assert stats.hits + stats.misses > 0


# -- end-to-end: faulted runs complete, trace carries the story ---------------
_PLAN = FaultPlan(
    disk_failures=(DiskFailure(ionode=1, time_s=2.5, rebuild_delay_s=0.5,
                               rebuild_bytes=4 * 1024 * 1024),),
    outages=(NodeOutage(ionode=2, start_s=3.0, duration_s=0.8),),
    drops=(RequestDrops(probability=0.05, start_s=1.0, duration_s=2.0),),
)


def _faulted_escat():
    return small_experiment("escat", faults=_PLAN).run()


class TestFaultedRunEndToEnd:
    def test_run_completes_with_resilience_rows(self):
        result = _faulted_escat()
        trace = result.traces["escat"]
        ev = trace.events
        op = ev["op"]
        faults = ev[op == int(Op.FAULT)]
        assert len(faults) > 0
        kinds = {int(code) for code in faults["offset"]}
        assert int(FaultKind.DISK_FAIL) in kinds
        assert int(FaultKind.NODE_CRASH) in kinds
        assert int(FaultKind.NODE_RESTART) in kinds
        assert int(FaultKind.REBUILD_DONE) in kinds
        assert (op == int(Op.DEGRADED)).sum() > 0

    def test_report_from_saved_trace_matches_in_process(self, tmp_path):
        result = _faulted_escat()
        trace = result.traces["escat"]
        live = ResilienceReport(trace)
        path = str(tmp_path / "escat.sddf")
        trace.save(path)
        reloaded = ResilienceReport(Trace.load(path))
        assert reloaded.summary() == live.summary()
        assert reloaded.render() == live.render()

    def test_same_seed_and_plan_is_byte_identical(self):
        first = {n: t.content_hash() for n, t in _faulted_escat().traces.items()}
        second = {n: t.content_hash() for n, t in _faulted_escat().traces.items()}
        assert first == second

    def test_slowdown_vs_fault_free_twin(self):
        baseline = small_experiment("escat").run().traces["escat"]
        faulted = _faulted_escat().traces["escat"]
        report = ResilienceReport(faulted, baseline=baseline)
        assert report.slowdown is not None
        assert report.slowdown >= 1.0

    def test_per_phase_slowdown_vs_fault_free_twin(self, tmp_path, capsys):
        from repro.cli import main

        baseline = small_experiment("escat").run().traces["escat"]
        faulted = _faulted_escat().traces["escat"]
        baseline.save(str(tmp_path / "base.sddf"))
        faulted.save(str(tmp_path / "faulted.sddf"))
        assert main(["faults", "report", str(tmp_path / "faulted.sddf"),
                     "--baseline", str(tmp_path / "base.sddf")]) == 0
        text = capsys.readouterr().out
        assert "Per-phase slowdown" in text
        window = ResilienceReport(faulted).phase_window_s
        ours = detect_phases(faulted, window_s=window)
        theirs = detect_phases(baseline, window_s=window)
        rows = ResilienceReport(faulted, baseline=baseline).phase_slowdowns()
        assert len(rows) == min(len(ours), len(theirs)) > 0
        # One rendered row per paired phase, after the section's header.
        body = text.split("Per-phase slowdown")[1].splitlines()[2:]
        assert len(body) == len(rows)
        for (label, base_s, mine_s, ratio), mine, base in zip(rows, ours, theirs):
            assert (label, base_s, mine_s) == (base.label, base.duration, mine.duration)
            assert ratio == mine.duration / base.duration

    def test_permanent_drops_exhaust_retry_budget(self):
        # Every request dropped forever: the budget must surface a typed
        # fatal error instead of hanging or silently succeeding.
        plan = FaultPlan(
            drops=(RequestDrops(probability=1.0, start_s=0.0),),
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.001,
                              max_backoff_s=0.01),
        )
        with pytest.raises(RetryBudgetExceeded):
            small_experiment("escat", faults=plan).run()


#: The PPFS presets of the golden fixtures (passthrough is PFS-like).
PPFS_PRESETS = ("default", "escat_tuned", "sequential_reader", "adaptive", "two_level")


def _small_run(app, fs="pfs", **kw):
    if fs != "pfs":
        kw.update(filesystem="ppfs", policies=PPFSPolicies.from_name(fs))
    return small_experiment(app, **kw).run()


class TestFaultPathPins:
    """Trace and span-store hashes of faulted runs on every retry path:
    the PFS fan-out, the PPFS fan-out with and without the server cache,
    and the write-behind flusher (checkpoint on escat_tuned is the preset
    whose flush retries fire under ``_PLAN``)."""

    @pytest.mark.parametrize(
        "app, fs, prefix",
        [
            ("escat", "pfs", "64b4a7f23bbb"),
            ("escat", "default", "b6162ef890d8"),
            ("escat", "two_level", "c80ae1a3263a"),
            ("checkpoint", "escat_tuned", "61a141edc71b"),
        ],
    )
    @pytest.mark.parametrize("spans", [False, True])
    def test_trace_hash_pinned(self, app, fs, prefix, spans):
        result = _small_run(app, fs, faults=_PLAN, spans=spans)
        assert result.traces[app].content_hash()[:12] == prefix

    @pytest.mark.parametrize(
        "app, fs, prefix",
        [
            ("escat", "pfs", "2d497c1b37e2"),
            ("escat", "default", "3ecc77155293"),
            ("checkpoint", "escat_tuned", "e50c8b412c42"),
        ],
    )
    def test_span_store_hash_pinned(self, app, fs, prefix):
        result = _small_run(app, fs, faults=_PLAN, spans=True)
        assert result.spans.store.content_hash()[:12] == prefix

    def test_server_cache_hits_stamped_at_send_with_retry_installed(self):
        """Drops that never fire still install retry and put the I/O nodes
        on the scalar queue, but nothing fails: every retry path must run
        as the fault-free one does, on escat, render and checkpoint under
        PFS and every PPFS preset.  The application rows of the trace (op
        below FAULT) hash equal, and the server-cache hit spans match row
        for row.

        HTF is left out: the pending drop timer keeps ``Environment.run``
        alive until it fires, so pargos, which starts when the run before
        it drains, starts at t=1e6 instead.
        """
        idle = FaultPlan(drops=(RequestDrops(probability=0.5, start_s=1e6),))

        def run(app, fs, **kw):
            result = _small_run(app, fs, spans=True, **kw)
            rows = {}
            for name, trace in result.traces.items():
                ev = trace.events
                rows[name] = hashlib.sha256(ev[ev["op"] < int(Op.FAULT)].tobytes()).hexdigest()
            hits = sorted(
                (s["node"], s["start"], s["nbytes"])
                for s in result.spans.store.iter_spans()
                if s["kind"] == "scache.hit"
            )
            return rows, hits

        for app in ("escat", "render", "checkpoint"):
            for fs in ("pfs", *PPFS_PRESETS):
                free_rows, free_hits = run(app, fs)
                rows, hits = run(app, fs, faults=idle)
                assert rows == free_rows, (app, fs)
                assert hits == free_hits, (app, fs)
                if (app, fs) == ("escat", "two_level"):
                    # Render's and checkpoint's re-reads stop at the
                    # client caches; escat's reach the server caches.
                    assert free_hits


class TestFlushRetry:
    def test_permanent_drops_exhaust_flush_budget(self):
        plan = FaultPlan(
            drops=(RequestDrops(probability=1.0, start_s=0.0),),
            retry=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(RetryBudgetExceeded, match="flush chunk"):
            _small_run("checkpoint", "escat_tuned", faults=plan)

    def test_flushed_bytes_survive_retries(self):
        result = _small_run("checkpoint", "escat_tuned", faults=_PLAN)
        wb = result.fs.writeback
        assert wb.bytes_flushed == wb.bytes_submitted == 8_388_608
        op = result.traces["checkpoint"].events["op"]
        assert (op == int(Op.RETRY)).sum() > 0


class TestInjectorLifecycle:
    def test_empty_plan_installs_nothing(self):
        machine = small_machine()
        injector = FaultInjector(machine, FaultPlan())
        injector.start()
        assert injector.recorder.rows == []
        assert not machine.ionodes[0]._faulty

    def test_stop_interrupts_scheduled_faults(self):
        machine = small_machine()
        plan = FaultPlan(outages=(NodeOutage(ionode=0, start_s=5.0,
                                             duration_s=1.0),))
        injector = FaultInjector(machine, plan)
        injector.start()
        injector.stop()
        machine.env.run()
        assert machine.ionodes[0].up
        kinds = [row[4] for row in injector.recorder.rows]
        assert int(FaultKind.NODE_CRASH) not in kinds

    def test_validates_against_machine(self):
        machine = small_machine()  # 4 I/O nodes
        plan = FaultPlan(outages=(NodeOutage(ionode=99, start_s=1.0,
                                             duration_s=1.0),))
        with pytest.raises(ValueError, match="ionode 99"):
            FaultInjector(machine, plan).start()
