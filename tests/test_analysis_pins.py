"""Pins on the analysis stage's outputs.

The critical path and the characterization report are pure functions of
a recorded run, so their outputs are pinned to the bit: every phase's
interval, critical node and components (as ``float.hex``), every
attributed op, and the report's text, observations, file classes and
per-file access arrays.  Phase names are left out of the critical-path
digest; ``tests/test_spans.py`` checks them.  The cases cover the event
apps, HTF under fluid fidelity (``fluid.plan`` roots), ESCAT on the
``escat_tuned`` PPFS preset, and a faulted ESCAT whose critical path
carries retry and degraded-service time.

Random span forests are then checked against the per-span walk the
columnar critical path replaced, kept below as the reference.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.report as report_module
from repro.analysis import CharacterizationReport, FileAccessMap, FileCycles, critical_path
from repro.core.registry import small_experiment
from repro.faults import DiskFailure, FaultPlan, NodeOutage, RequestDrops
from repro.spans import SpanStore

#: case -> (critical-path digest, characterization digest)
PINS = {
    "escat": ("fc1134142fc037e2", "fdaa74b38cb1e48e"),
    "render": ("6a7a8bf71082646f", "63a6484f277d1a34"),
    "htf": ("de72c85de1931a5b", "1a904902a3aa5c2c"),
    "checkpoint": ("61caf27a24218b73", "edfe9372e1040019"),
    "htf_fluid": ("e33c88891be9b467", "72b93447d685770e"),
    "escat_tuned": ("c6431f35da56ca27", "a494eaa2fd600e48"),
    "escat_faulted": ("84bc99f2605309db", "d93d63958fd89e16"),
}

_PLAN = FaultPlan(
    disk_failures=(DiskFailure(ionode=0, time_s=2.0, rebuild_delay_s=5.0,
                               rebuild_bytes=64 * 1024 * 1024),),
    outages=(NodeOutage(ionode=2, start_s=3.0, duration_s=0.8),),
    drops=(RequestDrops(probability=0.05, start_s=1.0, duration_s=2.0),),
)


@pytest.fixture(scope="module")
def runs(recorded):
    out = dict(recorded)
    out["htf_fluid"] = small_experiment("htf", spans=True, fidelity="fluid").run()
    out["escat_faulted"] = small_experiment("escat", spans=True, faults=_PLAN).run()
    return out


def _hex(x) -> str:
    return float(x).hex()


def _items(components: dict) -> tuple:
    return tuple((key, _hex(val)) for key, val in components.items())


def path_digest(store) -> str:
    h = hashlib.sha256()
    for p in critical_path(store).phases:
        h.update(repr((_hex(p.start), _hex(p.end), p.node, _items(p.components))).encode())
        for op in p.ops:
            h.update(repr((
                op.sid, op.kind, _hex(op.start), _hex(op.end), op.nbytes,
                _items(op.components),
            )).encode())
    return h.hexdigest()[:16]


def report_digest(traces: dict) -> str:
    h = hashlib.sha256()
    for name, trace in sorted(traces.items()):
        report = CharacterizationReport(trace)
        h.update(name.encode())
        h.update(report.render().encode())
        h.update(repr(report.observations()).encode())
        h.update(repr(list(report.file_classes.items())).encode())
        for fid, fa in report.file_access.files.items():
            h.update(repr((fid, fa.name, fa.bytes_read, fa.bytes_written,
                           str(fa.read_times.dtype), str(fa.write_times.dtype))).encode())
            h.update(fa.read_times.tobytes())
            h.update(fa.write_times.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(PINS))
def test_critical_path_is_pinned(runs, case):
    assert path_digest(runs[case].spans.store) == PINS[case][0]


@pytest.mark.parametrize("case", sorted(PINS))
def test_characterization_is_pinned(runs, case):
    assert report_digest(runs[case].traces) == PINS[case][1]


def test_report_builds_each_per_file_table_once(runs, monkeypatch):
    counts = Counter()

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(FileAccessMap, "__init__", counting(FileAccessMap.__init__, "map"))
    monkeypatch.setattr(FileCycles, "__init__", counting(FileCycles.__init__, "cycle"))
    monkeypatch.setattr(
        report_module, "reuse_intervals", counting(report_module.reuse_intervals, "reuse")
    )
    report = CharacterizationReport(runs["htf"].traces["pscf"])
    report.render()
    report.observations()
    assert counts == {"map": 1, "cycle": len(report.file_access), "reuse": 1}


def test_pins_reach_every_component(runs):
    """Between them the pinned cases attribute time to retry, degraded
    service and fluid plans, so every branch of the attribution is pinned."""
    seen = set()
    for case in PINS:
        for phase in critical_path(runs[case].spans.store).phases:
            seen.update(phase.components)
    assert {"retry", "degraded", "fluid", "queue", "seek", "stall"} <= seen


# -- the per-span walk, as the reference ---------------------------------------
_EPS = 1e-9
_COMPONENTS = ("compute", "stall", "network", "retry", "queue", "seek", "service",
               "degraded", "client", "fluid")


def reference_critical_path(store) -> list:
    """The per-span walk :func:`critical_path` replaced, phase names as
    they are now: (name, start, end, node, components, ops) per phase."""
    n = len(store)
    if n == 0:
        return []
    rows, kinds = store.rows, store.kinds
    kind_col = rows[:, 1].astype(np.int64)
    parent = rows[:, 0].astype(np.int64)
    node = rows[:, 2].astype(np.int64)
    start, end = rows[:, 3], rows[:, 4]
    children = {}
    for sid in range(n):
        if parent[sid] >= 0:
            children.setdefault(int(parent[sid]), []).append(sid)

    def kname(sid):
        return kinds[int(kind_col[sid])]

    marks = sorted(
        (float(start[sid]), sid, kname(sid)[5:])
        for sid in range(n) if kname(sid).startswith("mark.")
    )
    bounds = []
    prev, name = float(start.min()), "(head)" if marks else "run"
    for when, _sid, mark in marks:
        if when > prev + _EPS:
            bounds.append((name, prev, when))
            prev = when
        name = mark
    t_end = float(end.max())
    if t_end > prev + _EPS or not bounds:
        bounds.append((name, prev, t_end))
    is_root_op = np.array([
        (parent[sid] == -1 and kname(sid).startswith("op.")) or kname(sid) == "fluid.plan"
        for sid in range(n)
    ])
    wait_ids = [
        sid for sid in range(n)
        if parent[sid] == -1 and kname(sid) in ("barrier.wait", "sync.wait", "bcast.wait")
    ]

    def gap(lo, hi, components):
        if hi - lo <= 0:
            return
        intervals = sorted(
            (max(float(start[w]), lo), min(float(end[w]), hi))
            for w in wait_ids if end[w] > lo and start[w] < hi
        )
        stall, reach = 0.0, lo
        for a, b in intervals:
            if b > reach:
                stall += b - max(a, reach)
                reach = b
        components["stall"] += stall
        components["compute"] += (hi - lo) - stall

    def op(sid, s, e):
        comp = {}
        kids = children.get(sid, ())
        if kname(sid) == "fluid.plan":
            return {"fluid": e - s}
        requests = [k for k in kids if kname(k) == "ion.request"]
        if not requests:
            waits = sum(
                min(float(end[k]), e) - max(float(start[k]), s)
                for k in kids
                if kname(k).startswith(("token.", "sync.", "barrier.", "bcast."))
                and end[k] > s and start[k] < e
            )
            waits = min(max(waits, 0.0), e - s)
            if waits > 0:
                comp["stall"] = waits
            comp["client"] = (e - s) - waits
            return comp
        crit = max(requests, key=lambda k: float(end[k]))
        cs = min(max(float(start[crit]), s), e)
        ce = min(max(float(end[crit]), cs), e)
        pre = cs - s
        retry = sum(
            float(end[k]) - float(start[k]) for k in kids if kname(k) == "retry.backoff"
        )
        retry = min(retry, pre)
        if retry > 0:
            comp["retry"] = retry
        comp["network"] = pre - retry
        queue = service = seek = xfer = degraded = 0.0
        for k in children.get(crit, ()):
            dur = float(end[k]) - float(start[k])
            if kname(k) == "ion.queue":
                queue += dur
            elif kname(k) in ("ion.service", "ion.control"):
                service += dur
                for g in children.get(k, ()):
                    gdur = float(end[g]) - float(start[g])
                    if kname(g) == "disk.seek":
                        seek += gdur
                    elif kname(g) == "disk.xfer":
                        xfer += gdur
                    elif kname(g) == "raid.degraded":
                        degraded += gdur
        total, span_dur = queue + service, ce - cs
        if total <= 0.0:
            comp["service"] = span_dur
        else:
            scale = span_dur / total
            comp["queue"] = queue * scale
            disk = seek + xfer + degraded
            if disk > 0.0 and disk <= service:
                comp["seek"] = seek * scale
                comp["degraded"] = degraded * scale
                comp["service"] = (xfer + (service - disk)) * scale
            else:
                comp["service"] = service * scale
        comp["client"] = e - ce
        return {k: v for k, v in comp.items() if v != 0.0}

    phases = []
    for pname, ps, pe in bounds:
        in_phase = np.flatnonzero(is_root_op & (end > ps + _EPS) & (end <= pe + _EPS))
        if len(in_phase) == 0:
            phases.append((pname, ps, pe, -1, [("compute", pe - ps)], []))
            continue
        crit_node = int(node[int(in_phase[np.argmax(end[in_phase])])])
        chain = sorted(
            (int(sid) for sid in in_phase if node[sid] == crit_node),
            key=lambda sid: (start[sid], sid),
        )
        components = {k: 0.0 for k in _COMPONENTS}
        ops, cursor = [], ps
        for sid in chain:
            s, e = max(float(start[sid]), cursor), min(float(end[sid]), pe)
            if e <= cursor + _EPS:
                continue
            gap(cursor, s, components)
            comp = op(sid, s, e)
            for key, val in comp.items():
                components[key] += val
            ops.append((sid, kname(sid), s, e, int(rows[sid, 5]), list(comp.items())))
            cursor = e
        gap(cursor, pe, components)
        kept = [(k, v) for k, v in components.items() if v > 0.0]
        phases.append((pname, ps, pe, crit_node, kept, ops))
    return phases


def _as_tuples(report) -> list:
    return [
        (p.name, p.start, p.end, p.node, list(p.components.items()), [
            (o.sid, o.kind, o.start, o.end, o.nbytes, list(o.components.items()))
            for o in p.ops
        ])
        for p in report.phases
    ]


@st.composite
def span_forest(draw):
    """Marks (some coincident), machine-wide waits, and op roots on a few
    nodes with request/queue/service/disk, retry and token-wait children;
    fluid plans under a fluid.phase parent; now and then a non-root op."""
    store = SpanStore()
    # Times from a small grid as often as not, so starts and ends tie.
    when = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 2.7, 12.9]), st.floats(0.0, 40.0))
    length = st.one_of(st.sampled_from([0.2, 0.7, 1.9, 7.3]), st.floats(0.001, 10.0))
    frac = st.floats(0.0, 1.0, allow_nan=False)

    def within(a, b):
        lo = a + draw(frac) * (b - a)
        return lo, lo + draw(frac) * (b - lo)

    for i in range(draw(st.integers(0, 4))):
        t = draw(when)
        store.add(f"mark.m{i}", -1, t, t)
    for _ in range(draw(st.integers(0, 4))):
        a = draw(when)
        kind = draw(st.sampled_from(["barrier.wait", "sync.wait", "bcast.wait"]))
        store.add(kind, draw(st.integers(0, 3)), a, a + draw(length))
    for _ in range(draw(st.integers(1, 10))):
        node = draw(st.integers(0, 3))
        a = draw(when)
        b = a + draw(length)
        kind = draw(st.sampled_from(["op.read", "op.write", "op.seek", "fluid.plan"]))
        parent = -1
        if kind == "fluid.plan":
            parent = store.add("fluid.phase", -1, a, b)
        elif len(store) and draw(st.integers(0, 5)) == 0:
            parent = draw(st.integers(0, len(store) - 1))
        op = store.add(kind, node, a, b, parent=parent, nbytes=draw(st.integers(0, 1 << 20)))
        for child in draw(st.lists(st.sampled_from(
            ["ion.request", "retry.backoff", "token.write", "mesh.send"]), max_size=4)):
            c = store.add(child, 0, *within(a, b), parent=op)
            if child != "ion.request":
                continue
            ca, cb = store.span(c)["start"], store.span(c)["end"]
            for grand in draw(st.lists(st.sampled_from(
                    ["ion.queue", "ion.service", "ion.control"]), max_size=3)):
                g = store.add(grand, 0, *within(ca, cb), parent=c)
                ga, gb = store.span(g)["start"], store.span(g)["end"]
                for disk in draw(st.lists(st.sampled_from(
                        ["disk.seek", "disk.xfer", "raid.degraded"]), max_size=3)):
                    store.add(disk, 0, *within(ga, gb), parent=g)
    return store


@given(span_forest())
@settings(max_examples=200, deadline=None)
def test_columnar_critical_path_matches_the_per_span_walk(store):
    assert _as_tuples(critical_path(store)) == reference_critical_path(store)


def test_reference_agrees_on_recorded_runs(runs):
    for case in PINS:
        store = runs[case].spans.store
        assert _as_tuples(critical_path(store)) == reference_critical_path(store), case
