"""Causal spans: store semantics, recorded-tree invariants, critical
path, exporters, CLI and the campaign axis.

The heart of the file is the invariant block: every span a run records
must nest inside its parent, every I/O-node request must tile exactly
into queue + service, and the critical-path decomposition of every
phase must sum to that phase's makespan.  The golden block then pins
the other half of the contract: recording is read-only, so traces are
byte-identical with spans on or off in scalar, batched and fluid modes.
"""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import critical_path
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.core.registry import small_experiment
from repro.spans import (
    SpanRecorder,
    SpanStore,
    from_jsonl,
    load_jsonl,
    to_chrome,
    to_chrome_json,
    to_jsonl,
)
from repro.spans.export import (
    _PROCESS_NAMES,
    _kind_pid,
    _thread_label,
    chrome_trace_json,
    telemetry_counter_events,
)

APPS = ("escat", "render", "htf", "checkpoint")

_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_trace_hashes.json")
with open(_FIXTURE) as _fh:
    GOLDEN = json.load(_fh)

_EPS = 1e-9


def _hashes(result):
    return {name: t.content_hash() for name, t in sorted(result.traces.items())}


@pytest.fixture(scope="module")
def recorded():
    """One spans-on run per app, shared by every invariant test."""
    out = {}
    for app in APPS:
        result = small_experiment(app, spans=True).run()
        out[app] = result
    return out


# -- store -------------------------------------------------------------------
class TestSpanStore:
    def test_add_and_fields(self):
        store = SpanStore()
        sid = store.add("op.read", 3, 1.0, 2.5, parent=-1, nbytes=4096, aux=7.0)
        span = store.span(sid)
        assert span["kind"] == "op.read"
        assert span["node"] == 3
        assert span["start"] == 1.0 and span["end"] == 2.5
        assert span["nbytes"] == 4096 and span["aux"] == 7.0
        assert span["parent"] == -1

    def test_begin_finish_and_close_open(self):
        store = SpanStore()
        a = store.begin("op.write", 0, 1.0)
        b = store.begin("op.write", 1, 2.0)
        store.finish(a, 3.0)
        store.close_open(5.0)
        assert store.span(a)["end"] == 3.0
        assert store.span(b)["end"] == 5.0

    def test_growth_past_initial_capacity(self):
        store = SpanStore()
        for i in range(1000):
            store.add("k", i % 7, float(i), float(i) + 0.5)
        assert len(store) == 1000
        assert store.span(999)["start"] == 999.0

    def test_extend_vectorized(self):
        store = SpanStore()
        ids = store.extend(
            "mesh.send",
            np.array([-1.0, -1.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([0.5, 1.5]),
            np.array([10.0, 20.0]),
        )
        assert list(ids) == [0, 1]
        assert store.span(1)["nbytes"] == 20

    def test_children_index(self):
        store = SpanStore()
        root = store.add("op.read", 0, 0.0, 1.0)
        kid = store.add("ion.request", 0, 0.1, 0.9, parent=root)
        assert store.children_index()[root] == [kid]

    def test_content_hash_tracks_data(self):
        a, b = SpanStore(), SpanStore()
        a.add("x", 0, 0.0, 1.0)
        b.add("x", 0, 0.0, 1.0)
        assert a.content_hash() == b.content_hash()
        b.add("x", 0, 1.0, 2.0)
        assert a.content_hash() != b.content_hash()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["op.read", "ion.request", "disk.seek"]),
                st.integers(0, 7),
                st.floats(0.0, 100.0, allow_nan=False),
                st.floats(0.0, 100.0, allow_nan=False),
                st.integers(0, 1 << 30),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_dict_roundtrip_is_lossless(self, rows):
        store = SpanStore()
        for kind, node, start, dur, nbytes in rows:
            store.add(kind, node, start, start + dur, nbytes=nbytes)
        back = SpanStore.from_dict(store.as_dict())
        assert back.content_hash() == store.content_hash()
        assert list(back.kinds) == list(store.kinds)
        assert list(back.iter_spans()) == [store.span(i) for i in range(len(store))]

    def test_from_dict_rejects_bad_row_width(self):
        data = {"kinds": ["op.read"], "rows": [[-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0] * 6]}
        with pytest.raises(ValueError, match="row 1 has 6 values"):
            SpanStore.from_dict(data)


# -- recorded-tree invariants -------------------------------------------------
class TestRecordedInvariants:
    @pytest.mark.parametrize("app", APPS)
    def test_no_open_spans(self, recorded, app):
        rows = recorded[app].spans.store.rows
        assert bool((rows[:, 4] >= rows[:, 3]).all()), (
            f"{app}: a span ends before it starts (or was never closed)"
        )

    @pytest.mark.parametrize("app", APPS)
    def test_children_nest_within_parents(self, recorded, app):
        store = recorded[app].spans.store
        rows = store.rows
        parent = rows[:, 0].astype(np.int64)
        has_parent = parent >= 0
        kids = np.flatnonzero(has_parent)
        pstart = rows[parent[kids], 3]
        pend = rows[parent[kids], 4]
        ok = (rows[kids, 3] >= pstart - _EPS) & (rows[kids, 4] <= pend + _EPS)
        bad = kids[~ok]
        assert len(bad) == 0, (
            f"{app}: {len(bad)} spans leak outside their parent interval, "
            f"e.g. {store.span(int(bad[0]))}"
        )

    @pytest.mark.parametrize("app", APPS)
    def test_queue_plus_service_tiles_each_request(self, recorded, app):
        store = recorded[app].spans.store
        rows = store.rows
        kinds = list(store.kinds)
        req_code = kinds.index("ion.request")
        kid_codes = {
            kinds.index(k)
            for k in ("ion.queue", "ion.service", "ion.control")
            if k in kinds
        }
        parent = rows[:, 0].astype(np.int64)
        kind = rows[:, 1].astype(np.int64)
        dur = rows[:, 4] - rows[:, 3]
        req_ids = np.flatnonzero(kind == req_code)
        assert len(req_ids) > 0
        covered = np.zeros(len(rows))
        for sid in np.flatnonzero(np.isin(kind, list(kid_codes))):
            covered[parent[sid]] += dur[sid]
        err = np.abs(covered[req_ids] - dur[req_ids])
        assert float(err.max()) < _EPS, (
            f"{app}: queue+service no longer tiles the request interval "
            f"(worst error {float(err.max()):g}s)"
        )

    @pytest.mark.parametrize("app", APPS)
    def test_critical_path_sums_to_phase_makespan(self, recorded, app):
        report = critical_path(recorded[app].spans.store)
        assert report.phases, f"{app}: no phases extracted"
        for phase in report.phases:
            total = sum(phase.components.values())
            assert total == pytest.approx(phase.makespan, rel=1e-9, abs=1e-9), (
                f"{app}/{phase.name}: components sum to {total}, "
                f"makespan is {phase.makespan}"
            )

    def test_fault_spans_appear_under_injection(self):
        from repro.faults.plan import DiskFailure, FaultPlan

        plan = FaultPlan(
            disk_failures=(
                DiskFailure(ionode=1, time_s=2.5, rebuild_delay_s=0.5,
                            rebuild_bytes=4 * 1024 * 1024),
            ),
        )
        result = small_experiment("escat", spans=True, faults=plan).run()
        kinds = set(result.spans.store.kinds)
        assert "fault.disk_fail" in kinds
        assert "fault.degraded" in kinds


# -- critical path on synthetic trees (hypothesis) ----------------------------
@st.composite
def synthetic_store(draw):
    """Random marks + op roots with optional request/queue/service kids."""
    store = SpanStore()
    n_marks = draw(st.integers(0, 3))
    for i in range(n_marks):
        t = draw(st.floats(0.5, 50.0, allow_nan=False))
        store.add(f"mark.p{i}", -1, t, t)
    n_ops = draw(st.integers(1, 12))
    for _ in range(n_ops):
        node = draw(st.integers(0, 3))
        start = draw(st.floats(0.0, 40.0, allow_nan=False))
        dur = draw(st.floats(0.001, 10.0, allow_nan=False))
        end = start + dur
        op = store.add("op.read", node, start, end)
        if draw(st.booleans()):
            q = draw(st.floats(0.0, dur / 2, allow_nan=False))
            srv = draw(st.floats(0.0, dur / 2, allow_nan=False))
            arr = start + draw(st.floats(0.0, dur - q - srv, allow_nan=False))
            req = store.add("ion.request", 0, arr, arr + q + srv, parent=op)
            store.add("ion.queue", 0, arr, arr + q, parent=req)
            store.add("ion.service", 0, arr + q, arr + q + srv, parent=req)
    return store


class TestCriticalPathProperties:
    @given(synthetic_store())
    @settings(max_examples=100, deadline=None)
    def test_components_always_sum_to_makespan(self, store):
        report = critical_path(store)
        for phase in report.phases:
            total = sum(phase.components.values())
            assert total == pytest.approx(phase.makespan, rel=1e-9, abs=1e-9)
            assert all(v >= -_EPS for v in phase.components.values())

    def test_empty_store(self):
        assert critical_path(SpanStore()).phases == []

    def test_unmarked_store_is_one_phase(self):
        store = SpanStore()
        store.add("op.read", 0, 1.0, 3.0)
        report = critical_path(store)
        assert [p.name for p in report.phases] == ["run"]
        assert report.phases[0].node == 0

    def test_render_mentions_phases(self, recorded):
        text = critical_path(recorded["escat"].spans.store).render(top_ops=2)
        assert "critical path" in text
        assert "phase2" in text and "makespan" in text


# -- zero perturbation (golden guard) -----------------------------------------
class TestSpansAreInvisible:
    """Recording must never change what the application observes."""

    @pytest.mark.parametrize("mode", ("batched", "scalar"))
    @pytest.mark.parametrize("app", APPS)
    def test_spans_on_matches_golden(self, app, mode, monkeypatch):
        if mode == "scalar":
            monkeypatch.setenv("REPRO_NO_BATCH", "1")
        else:
            monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        result = small_experiment(app, spans=True).run()
        assert len(result.spans.store) > 0
        assert _hashes(result) == GOLDEN[app], (
            f"{app} with spans enabled ({mode}) perturbed the event stream — "
            f"a hook is no longer read-only"
        )

    @pytest.mark.parametrize("app", APPS)
    def test_spans_off_matches_golden(self, app):
        result = small_experiment(app, spans=None).run()
        assert result.spans is None
        assert _hashes(result) == GOLDEN[app], (
            f"{app} with spans=None drifted from the golden fixture — "
            f"the spans-off path is no longer zero-cost"
        )

    @pytest.mark.parametrize("app", APPS)
    def test_fluid_mode_unperturbed(self, app):
        """Fluid traces are approximate (no golden fixture), so compare
        the spans-on run against its own spans-off twin."""
        off = small_experiment(app, fidelity="fluid").run()
        on = small_experiment(app, fidelity="fluid", spans=True).run()
        assert _hashes(on) == _hashes(off), (
            f"{app} fluid run with spans enabled drifted from its twin"
        )
        solver = getattr(on.fs, "fluid", None) or getattr(
            getattr(on.fs, "fs", None), "fluid", None
        )
        if solver is not None and solver.phases_solved:
            # Only phases the solver actually priced in closed form
            # synthesize plan spans; fallback phases record real events.
            assert "fluid.plan" in set(on.spans.store.kinds), (
                f"{app}: fluid solver solved {solver.phases_solved} "
                f"phases but produced no plan spans"
            )

    def test_trace_app_unperturbed(self, tmp_path):
        """The fifth app replays an ingested trace; golden-guard it the
        same way against its own spans-off twin."""
        from repro.apps.trace import TraceReplayConfig
        from repro.ingest import export_trace

        path = tmp_path / "escat.jsonl"
        export_trace(small_experiment("escat").run().trace, path)
        config = TraceReplayConfig(source=str(path), think_time="anchor")
        off = small_experiment("trace", config=config).run()
        on = small_experiment("trace", config=config, spans=True).run()
        assert _hashes(on) == _hashes(off)
        assert len(on.spans.store) > 0


# -- exporters ---------------------------------------------------------------
def reference_to_jsonl(store):
    """The per-span JSONL writer the columnar one must match byte for byte."""
    lines = [
        json.dumps(
            {"kind": "meta", "format": "repro.spans", "version": 1, "count": len(store)},
            separators=(",", ":"),
        )
    ]
    for sid in range(len(store)):
        record = store.span(sid)
        record["kind"], record["span"] = "span", record.pop("kind")
        lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def reference_to_chrome_json(store):
    """The per-span Chrome writer the columnar one must match byte for byte."""
    events = []
    seen_threads = set()
    for sid in range(len(store)):
        span = store.span(sid)
        kind = span["kind"]
        pid = _kind_pid(kind)
        tid = max(span["node"], 0)
        seen_threads.add((pid, tid))
        ts = span["start"] * 1e6
        if kind.startswith("mark."):
            events.append(
                {"name": kind, "ph": "i", "s": "g", "ts": ts, "pid": pid, "tid": tid}
            )
            continue
        events.append(
            {
                "name": kind,
                "ph": "X",
                "ts": ts,
                "dur": max(span["end"] - span["start"], 0.0) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    "nbytes": span["nbytes"],
                    "aux": span["aux"],
                },
            }
        )
    meta = []
    for pid in sorted({pid for pid, _ in seen_threads}):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": _PROCESS_NAMES.get(pid, f"pid {pid}")},
            }
        )
    for pid, tid in sorted(seen_threads):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": _thread_label(pid, tid)},
            }
        )
    return json.dumps(
        {"traceEvents": meta + events, "displayTimeUnit": "ms"}, separators=(",", ":")
    )


#: Every pid lane, instant marks, and kinds that need JSON escaping.
_EXPORT_KINDS = (
    "op.read", "ion.request", "disk.seek", "raid.rebuild", "wb.flush", "bb.drain",
    "fluid.plan", "fault.retry", "mark.phase2", 'we"ird\\kind', "kïnd→é",
)
_SPECIAL_FLOATS = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300)


@st.composite
def export_store(draw):
    """Stores with open spans (end=-1), -0.0, NaN, +-inf and escaped kinds."""
    store = SpanStore()
    floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(_EXPORT_KINDS))
        node = draw(st.integers(-1, 9))
        start = draw(floats)
        parent = draw(st.integers(-1, len(store) - 1))
        nbytes = draw(st.integers(0, 1 << 40))
        aux = draw(floats)
        if draw(st.booleans()):
            store.begin(kind, node, start, parent=parent, nbytes=nbytes, aux=aux)
        else:
            store.add(kind, node, start, draw(floats), parent=parent, nbytes=nbytes, aux=aux)
    return store


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: sha256 prefixes of (to_jsonl, to_chrome_json) for each small-scale app.
EXPORT_PINS = {
    "escat": ("3d9d693f8b2dd6ec", "3ce554ce1915297f"),
    "render": ("56e9f73d93cdbc12", "31e0de0d1ad56a0e"),
    "htf": ("4f885a4fcbcbe5c1", "bd84582c547333be"),
    "checkpoint": ("cecb16321748deb2", "451be7d9cc2662bb"),
}


class TestColumnarWriters:
    @given(export_store())
    @settings(max_examples=200, deadline=None)
    def test_match_reference_writers(self, store):
        assert to_jsonl(store) == reference_to_jsonl(store)
        assert to_chrome_json(store) == reference_to_chrome_json(store)

    def test_edge_values(self):
        store = SpanStore()
        store.add("op.read", 2, 0.0, -0.0, aux=-0.0)  # dur is -0.0
        store.begin("ion.request", -1, 3.5, parent=0)  # open: dur clamps to 0
        store.add("mark.phase2", -1, float("nan"), float("nan"), aux=float("inf"))
        store.add('we"ird\\kind', 1, float("-inf"), float("inf"), aux=float("-inf"))
        store.add("kïnd→é", 4, 1e300, 5e-324, nbytes=1 << 40, aux=float("nan"))
        assert to_jsonl(store) == reference_to_jsonl(store)
        assert to_chrome_json(store) == reference_to_chrome_json(store)

    def test_empty_store(self):
        store = SpanStore()
        assert to_jsonl(store) == reference_to_jsonl(store)
        assert to_chrome_json(store) == reference_to_chrome_json(store)
        assert to_chrome(store) == {"traceEvents": [], "displayTimeUnit": "ms"}
        assert len(from_jsonl(to_jsonl(store))) == 0

    @pytest.mark.parametrize("app", APPS)
    def test_small_scale_exports_are_pinned(self, recorded, app):
        store = recorded[app].spans.store
        assert (_sha(to_jsonl(store)), _sha(to_chrome_json(store))) == EXPORT_PINS[app]

    def test_to_chrome_is_the_parsed_json(self, recorded):
        store = recorded["escat"].spans.store
        assert to_chrome(store) == json.loads(reference_to_chrome_json(store))


class TestChromeExport:
    def test_valid_trace_event_json(self, recorded):
        store = recorded["escat"].spans.store
        data = json.loads(to_chrome_json(store))
        events = data["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "M", "i"}
        for event in events:
            assert isinstance(event["name"], str)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert "ts" in event

    def test_complete_events_cover_every_nonmark_span(self, recorded):
        store = recorded["escat"].spans.store
        events = to_chrome(store)["traceEvents"]
        n_x = sum(1 for e in events if e["ph"] == "X")
        n_marks = sum(
            1 for s in store.iter_spans() if s["kind"].startswith("mark.")
        )
        assert n_x == len(store) - n_marks

    def test_process_and_thread_metadata(self, recorded):
        events = to_chrome(recorded["escat"].spans.store)["traceEvents"]
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert "compute nodes" in names
        assert "I/O nodes" in names

    def test_telemetry_counter_lanes(self):
        result = small_experiment("escat", telemetry=1.0).run()
        events = telemetry_counter_events(result.telemetry.as_dict())
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and all("value" in e["args"] for e in counters)
        json.loads(chrome_trace_json(events))  # must be valid JSON


_META = '{"kind":"meta","format":"repro.spans","version":1,"count":1}'
_SPAN = (
    '{"id":0,"parent":-1,"node":%s,"start":0.0,"end":1.0,"nbytes":0,'
    '"aux":0.0,"kind":"span","span":%s}'
)

#: Malformed captures: (text, the error it must name).
MALFORMED = {
    "string-node": (_META + "\n" + _SPAN % ('"x"', '"op.read"'), "line 2: node must be a number"),
    "top-level-list": (_META + "\n\n[1,2]", "line 3: expected a JSON object"),
    "numeric-kind": (_META + "\n" + _SPAN % ("0", "5"), "line 2: span kind must be a string"),
    "missing-field": (
        _META + '\n{"id":0,"node":0,"start":0.0,"end":1.0,"nbytes":0,"aux":0.0,'
        '"kind":"span","span":"op.read"}',
        "line 2: span has no 'parent' field",
    ),
    "bool-field": (_META + "\n" + _SPAN % ("true", '"op.read"'), "line 2: node must be a number"),
    "bad-json": (_META + '\n{"kind":"span",', "line 2: "),
}


class TestJsonlRoundTrip:
    def test_bit_exact(self, recorded):
        for app in APPS:
            store = recorded[app].spans.store
            back = from_jsonl(to_jsonl(store))
            assert back.content_hash() == store.content_hash(), app

    def test_load_jsonl(self, recorded, tmp_path):
        store = recorded["render"].spans.store
        path = tmp_path / "x.spans.jsonl"
        path.write_text(to_jsonl(store))
        assert load_jsonl(path).content_hash() == store.content_hash()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_line_is_a_typed_error(self, case):
        text, message = MALFORMED[case]
        with pytest.raises(ValueError) as info:
            from_jsonl(text)
        assert str(info.value).startswith(message)


# -- experiment / campaign wiring ---------------------------------------------
class TestWiring:
    def test_normalize_spans(self):
        from repro.core.assembly import normalize_spans

        assert normalize_spans(None) is None
        assert normalize_spans(False) is None
        assert isinstance(normalize_spans(True), SpanRecorder)
        prepared = SpanRecorder()
        assert normalize_spans(prepared) is prepared

    def test_spans_axis_preserves_hashes(self):
        base = RunSpec("escat")
        assert RunSpec("escat", spans=False).run_hash == base.run_hash
        on = RunSpec("escat", spans=True)
        assert on.run_hash != base.run_hash
        assert on.label().endswith("spans")
        assert RunSpec.from_dict(on.to_dict()).run_hash == on.run_hash

    def test_campaign_grid_expands_spans_axis(self):
        runs = CampaignSpec(apps=("escat",), spans=(None, True)).expand()
        assert len(runs) == 2
        assert {r.spans for r in runs} == {None, True}

    def test_build_experiment_carries_spans(self):
        exp = RunSpec("escat", spans=True).build_experiment()
        assert exp.spans is True


# -- CLI ----------------------------------------------------------------------
class TestSpansCLI:
    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory, request):
        path = tmp_path_factory.mktemp("spans") / "escat.spans.jsonl"
        result = small_experiment("escat", spans=True).run()
        path.write_text(to_jsonl(result.spans.store))
        return str(path)

    def test_run_spans_flag(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["run", "escat", "--scale", "small", "--spans",
                   "--save-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "causal spans" in out and "critical path" in out
        assert (tmp_path / "escat.spans.jsonl").exists()

    def test_report(self, capture, capsys):
        from repro.cli import main

        assert main(["spans", "report", capture]) == 0
        out = capsys.readouterr().out
        assert "ion.request" in out

    def test_show_subtree(self, capture, capsys):
        from repro.cli import main

        store = load_jsonl(capture)
        root = next(
            s["id"] for s in store.iter_spans()
            if s["kind"] == "op.read" and store.children_index().get(s["id"])
        )
        assert main(["spans", "show", capture, "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "op.read" in out and "ion.request" in out

    def test_critical_path(self, capture, capsys):
        from repro.cli import main

        assert main(["spans", "critical-path", capture, "--ops", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "phase2" in out

    def test_export_chrome(self, capture, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "trace.json"
        assert main(["spans", "export", capture, "--format", "chrome",
                     "--out", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["traceEvents"]

    @pytest.mark.parametrize("command", ("report", "show", "export", "critical-path"))
    @pytest.mark.parametrize("case", ("string-node", "top-level-list", "numeric-kind"))
    def test_malformed_capture_exits_2(self, tmp_path, capsys, command, case):
        from repro.cli import main

        text, message = MALFORMED[case]
        path = tmp_path / "bad.spans.jsonl"
        path.write_text(text)
        assert main(["spans", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"bad spans capture: {message}" in err

    def test_telemetry_export_chrome(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry import to_jsonl as telemetry_to_jsonl

        result = small_experiment("escat", telemetry=1.0).run()
        cap = tmp_path / "escat.telemetry.jsonl"
        telemetry_to_jsonl(result.telemetry.as_dict(), str(cap))
        assert main(["telemetry", "export", str(cap),
                     "--format", "chrome"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert any(e["ph"] == "C" for e in data["traceEvents"])
