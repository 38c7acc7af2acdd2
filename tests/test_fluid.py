"""Fluid fidelity: makespan agreement, decline safety, golden guards.

The fluid servicer (:mod:`repro.sim.fluid`) is approximate *by
contract*: phase makespans must land within the declared 2% of the
discrete-event run, and everywhere the closed form cannot price —
PPFS caches, fault plans, perturbed capture — it must decline without
consuming RNG draws, leaving the run byte-identical to event fidelity.
These tests pin both halves of that contract, plus the spec plumbing:
``fidelity='event'`` (and unset) must keep every existing run hash and
golden trace hash byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec, RunSpec
from repro.core.registry import small_experiment
from repro.faults import DiskFailure, FaultPlan

_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_trace_hashes.json")

with open(_FIXTURE) as _fh:
    GOLDEN = json.load(_fh)

APPS = ("escat", "render", "htf", "checkpoint")

PPFS_PRESETS = ("default", "escat_tuned", "sequential_reader", "adaptive",
                "two_level")

#: The declared fluid-vs-event makespan bound (docs/PERFORMANCE.md).
ERROR_BOUND = 0.02

#: Apps whose phase loops offer fluid plans (render has no hints).
FLUID_APPS = ("escat", "htf", "checkpoint")


def _run(app, fidelity=None, **spec_kwargs):
    spec = RunSpec(app, scale="small", fidelity=fidelity, **spec_kwargs)
    return spec.build_experiment().run()


def _makespan(result) -> float:
    span = 0.0
    for trace in result.traces.values():
        events = trace.events
        if callable(events):
            events = events()
        if len(events):
            span = max(span, float((events["timestamp"] + events["duration"]).max()))
    return span


def _hashes(result) -> dict:
    return {name: tr.content_hash() for name, tr in sorted(result.traces.items())}


# -- the accuracy half of the contract -----------------------------------------
class TestMakespanAgreement:
    @pytest.mark.parametrize("app", APPS)
    def test_within_declared_bound(self, app):
        event = _run(app)
        fluid = _run(app, fidelity="fluid")
        event_make, fluid_make = _makespan(event), _makespan(fluid)
        assert event_make > 0
        err = abs(fluid_make - event_make) / event_make
        assert err <= ERROR_BOUND, (
            f"{app}: fluid makespan {fluid_make} vs event {event_make} "
            f"({err:.2%} > {ERROR_BOUND:.0%})"
        )
        # Same event population, op for op: fluid reprices, never drops.
        for name in event.traces:
            ev, fl = event.traces[name], fluid.traces[name]
            assert len(fl.events) == len(ev.events)

    @pytest.mark.parametrize("app", FLUID_APPS)
    def test_fluid_actually_engages(self, app):
        result = _run(app, fidelity="fluid")
        servicer = result.fs.fluid
        assert servicer is not None
        assert servicer.phases_solved > 0
        assert servicer.ops_serviced > 0
        for phase in servicer.phases:
            assert phase["end"] >= phase["start"]
            assert phase["parties"] >= 1

    def test_render_passes_through_byte_identical(self):
        """No fluid hints -> the servicer is idle and the trace is golden."""
        result = _run("render", fidelity="fluid")
        assert result.fs.fluid.phases_solved == 0
        assert _hashes(result) == GOLDEN["render"]

    def test_checkpoint_stats_survive_the_closed_form(self):
        """The fluid path recomputes app statistics arithmetically."""
        event = _run("checkpoint")
        fluid = _run("checkpoint", fidelity="fluid")
        for attr in ("checkpoints_taken", "bytes_written", "raw_bytes", "restarts"):
            assert getattr(fluid.app.stats, attr) == getattr(event.app.stats, attr)

    @given(
        app=st.sampled_from(FLUID_APPS),
        seed=st.one_of(st.none(), st.integers(0, 2**16)),
    )
    @settings(max_examples=20, deadline=None)
    def test_bound_holds_across_seeds(self, app, seed):
        event = _run(app, seed=seed)
        fluid = _run(app, fidelity="fluid", seed=seed)
        event_make = _makespan(event)
        assert abs(_makespan(fluid) - event_make) / event_make <= ERROR_BOUND

    @given(
        checkpoints=st.integers(1, 5),
        state_kb=st.sampled_from((64, 256, 1024)),
        chunk_kb=st.sampled_from((32, 64, 256)),
    )
    @settings(max_examples=15, deadline=None)
    def test_bound_holds_across_checkpoint_shapes(
        self, checkpoints, state_kb, chunk_kb
    ):
        overrides = (
            ("checkpoints", checkpoints),
            ("chunk_bytes", chunk_kb * 1024),
            ("state_bytes", state_kb * 1024),
        )
        event = _run("checkpoint", overrides=overrides)
        fluid = _run("checkpoint", fidelity="fluid", overrides=overrides)
        event_make = _makespan(event)
        assert abs(_makespan(fluid) - event_make) / event_make <= ERROR_BOUND
        assert fluid.app.stats.checkpoints_taken == checkpoints


# -- fluid outputs, pinned ---------------------------------------------------
#: Small-scale fluid runs: per-program trace hashes, a digest of the
#: per-node counters, and (from a run with telemetry at 1 s cadence and
#: spans on) the telemetry series, metrics registry and span store.
#: Fluid shares the I/O nodes' service law with the event path, so any
#: change to how either prices a chunk moves these.
FLUID_PINS = {
    "htf": {
        "traces": {"pargos": "96057ed99736", "pscf": "e5aa0f4f8528",
                   "psetup": "e782f386b96a"},
        "ionodes": "b691f70d28a5",
        "telemetry": "5cd813859175",
        "registry": "27b6de64f543",
        "spans": "b9513678cf4b",
    },
    "escat": {
        "traces": {"escat": "eb97f9da3983"},
        "ionodes": "517670f27259",
        "telemetry": "f7de2d2cfd34",
        "registry": "f4f9ebd560fd",
        "spans": "3839ce865247",
    },
    "checkpoint": {
        "traces": {"checkpoint": "22c2783ff50f"},
        "ionodes": "c7cd3f908968",
        "telemetry": "80663c031448",
        "registry": "5f6c867636d0",
        "spans": "e0fb4b5a4a0f",
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _node_digest(result) -> str:
    return _digest(repr([
        (ion.requests_served, ion.bytes_served, ion.busy_time, ion.array._arm.head_pos)
        for ion in result.machine.ionodes
    ]))


class TestFluidOutputPins:
    @pytest.mark.parametrize("app", FLUID_APPS)
    def test_outputs_match_pins(self, app):
        plain = _run(app, fidelity="fluid")
        observed = _run(app, fidelity="fluid", telemetry=1.0, spans=True)
        assert plain.fs.fluid.phases_solved > 0
        traces = {name: h[:12] for name, h in _hashes(plain).items()}
        assert {name: h[:12] for name, h in _hashes(observed).items()} == traces
        assert _node_digest(observed) == _node_digest(plain)
        telemetry = observed.telemetry
        got = {
            "traces": traces,
            "ionodes": _node_digest(plain),
            "telemetry": telemetry.series.content_hash()[:12],
            "registry": _digest(json.dumps(telemetry.registry.as_dict(), sort_keys=True)),
            "spans": observed.spans.store.content_hash()[:12],
        }
        assert got == FLUID_PINS[app], f"fluid {app} outputs moved"


# -- the decline half of the contract ------------------------------------------
class TestDeclinesAreByteIdentical:
    @pytest.mark.parametrize("preset", PPFS_PRESETS)
    @pytest.mark.parametrize("app", APPS)
    def test_ppfs_presets_decline_to_golden(self, app, preset):
        """Cache/prefetch state could change outcomes -> never fluid."""
        policy = None if preset == "default" else preset
        result = _run(app, fidelity="fluid", fs="ppfs", policy=policy)
        assert result.fs.fluid.phases_solved == 0
        assert _hashes(result) == GOLDEN[f"{app}/ppfs/{preset}"], (
            f"{app}/ppfs/{preset}: a declined fluid run drifted from the "
            f"event-fidelity golden stream — the decline consumed state"
        )

    def test_fault_plans_force_event_fidelity(self):
        plan = FaultPlan(
            disk_failures=(DiskFailure(ionode=1, time_s=1.0, rebuild_delay_s=0.1,
                                       rebuild_bytes=1024),),
        )
        exp = small_experiment("escat", faults=plan, fidelity="fluid")
        result = exp.run()
        assert result.injector is not None
        assert result.fs.fluid is None  # no servicer attached at all

    def test_perturbed_capture_declines(self):
        """Nonzero Pablo overhead is unmodelled -> the offer is refused."""
        exp = small_experiment("escat", fidelity="fluid", capture_overhead_s=1e-4)
        result = exp.run()
        assert result.fs.fluid.phases_solved == 0
        assert result.fs.fluid.phases_declined > 0


# -- golden guard: event fidelity stays byte-identical -------------------------
class TestEventFidelityGolden:
    @pytest.mark.parametrize("app", APPS)
    def test_explicit_event_matches_golden(self, app):
        result = _run(app, fidelity="event")
        assert _hashes(result) == GOLDEN[app]

    @pytest.mark.parametrize("app", APPS)
    def test_default_matches_golden(self, app):
        assert _hashes(_run(app)) == GOLDEN[app]


# -- spec plumbing: hashes, labels, the campaign axis --------------------------
class TestFidelitySpec:
    def test_event_is_hash_preserving(self):
        """Unset and 'event' both canonicalize to the legacy form."""
        legacy = RunSpec("escat")
        assert "fidelity" not in legacy.canonical()
        for fidelity in (None, "event"):
            spec = RunSpec("escat", fidelity=fidelity)
            assert spec.fidelity is None
            assert spec.run_hash == legacy.run_hash
            assert spec.canonical() == legacy.canonical()

    def test_fluid_changes_the_hash_and_label(self):
        base, fluid = RunSpec("htf"), RunSpec("htf", fidelity="fluid")
        assert fluid.run_hash != base.run_hash
        assert fluid.canonical()["fidelity"] == "fluid"
        assert "fluid" in fluid.label()
        assert "fluid" not in base.label()

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ValueError):
            RunSpec("escat", fidelity="approximate")

    def test_round_trips_through_dict(self):
        spec = RunSpec("checkpoint", fidelity="fluid", seed=7)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_dict(RunSpec("checkpoint").to_dict()).fidelity is None

    def test_campaign_axis_expands(self):
        grid = CampaignSpec(
            apps=("escat",), fidelities=(None, "fluid"), name="t"
        ).expand()
        assert sorted(r.fidelity or "event" for r in grid) == ["event", "fluid"]
        # 'event' entries dedupe against None: no double-counted baseline.
        grid = CampaignSpec(
            apps=("escat",), fidelities=(None, "event", "fluid"), name="t"
        ).expand()
        assert len(grid) == 2

    def test_build_experiment_carries_fidelity(self):
        assert RunSpec("escat", fidelity="fluid").build_experiment().fidelity == "fluid"
        assert RunSpec("escat").build_experiment().fidelity == "event"
