"""Span exporters: Chrome trace-event JSON (Perfetto) and JSONL.

The Chrome writer emits the trace-event format understood by Perfetto
and ``chrome://tracing``: one complete ("X") event per span, organized
into one process track per layer (compute nodes / I/O nodes / disks /
background services) with one thread lane per node index.  Timestamps
are microseconds of simulated time.

The same low-level writer is reused by ``repro telemetry export
--format chrome`` to render sampled time series as counter ("C")
events, so spans and telemetry land in one Perfetto timeline.

Both span writers format straight from the store's columns: each column
is converted to Python values once, per-kind values (escaped name,
Chrome pid, instant-vs-complete) are resolved once per kind code, and
the output is assembled in one string-formatting pass.  The bytes are
exactly what ``json.dumps`` writes for the equivalent per-span dicts —
same key order, floats as ``float.__repr__``, non-finite values as
``NaN``/``Infinity``/``-Infinity``, kinds escaped with ``ensure_ascii``.
"""

from __future__ import annotations

import json
import operator
from typing import Iterable, Mapping

import numpy as np

from .store import SpanStore

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "to_chrome",
    "to_chrome_json",
    "telemetry_counter_events",
    "to_jsonl",
    "from_jsonl",
    "load_jsonl",
]

_US = 1e6

#: Layer tracks: pid + human name, chosen by span-kind prefix.
_PID_COMPUTE = 1
_PID_ION = 2
_PID_DISK = 3
_PID_SERVICES = 4
_PID_TELEMETRY = 5

_PROCESS_NAMES = {
    _PID_COMPUTE: "compute nodes",
    _PID_ION: "I/O nodes",
    _PID_DISK: "disks",
    _PID_SERVICES: "services",
    _PID_TELEMETRY: "telemetry",
}

_PREFIX_PIDS = (
    ("ion.", _PID_ION),
    ("disk.", _PID_DISK),
    ("raid.", _PID_DISK),
    ("wb.", _PID_SERVICES),
    ("bb.", _PID_SERVICES),
    ("fluid.", _PID_SERVICES),
    ("fault.", _PID_SERVICES),
)


def _kind_pid(kind: str) -> int:
    for prefix, pid in _PREFIX_PIDS:
        if kind.startswith(prefix):
            return pid
    return _PID_COMPUTE


def _thread_label(pid: int, tid: int) -> str:
    if pid == _PID_ION:
        return f"ionode {tid}"
    if pid == _PID_DISK:
        return f"disk {tid}"
    if pid == _PID_COMPUTE:
        return f"node {tid}"
    return f"lane {tid}"


def chrome_trace(events: Iterable[Mapping]) -> dict:
    """Wrap raw trace events in the Chrome trace-object envelope."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}


def chrome_trace_json(events: Iterable[Mapping]) -> str:
    return json.dumps(chrome_trace(events), separators=(",", ":"))


def _ints(column: np.ndarray) -> list[int]:
    return column.astype(np.int64).tolist()


def _float_literals(column: np.ndarray) -> list[str]:
    """Each value spelled as ``json.dumps`` writes it.

    Span columns repeat values heavily (shared boundaries, constant
    ``aux``), so each distinct value is formatted once.  Distinct means
    distinct bit pattern: ``-0.0`` and ``0.0`` keep their own spellings.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    literals = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        literals[i] = json.dumps(float(values[i]))
    return np.array(literals, dtype=object)[inverse].tolist()


def to_chrome(store: SpanStore) -> dict:
    """Span store -> Chrome trace object (one track per node/ionode/disk)."""
    return json.loads(to_chrome_json(store))


def to_chrome_json(store: SpanStore) -> str:
    """Span store -> Chrome trace-event JSON: thread/process metadata
    first, then one instant ("i") event per ``mark.*`` span and one
    complete ("X") event per other span, in span-id order."""
    kinds = store.kinds
    names = [json.dumps(kind) for kind in kinds]
    pids = [_kind_pid(kind) for kind in kinds]
    marks = [kind.startswith("mark.") for kind in kinds]

    codes = store.column("kind").astype(np.int64)
    tids = np.maximum(store.column("node").astype(np.int64), 0)
    start = store.column("start")
    # IEEE results (inf - inf = nan, overflow to inf) as Python floats give them.
    with np.errstate(invalid="ignore", over="ignore"):
        ts = start * _US
        length = store.column("end") - start
        # where(d < 0, 0, d) is Python's max(d, 0.0), -0.0 and NaN included.
        dur = np.where(length < 0, 0.0, length) * _US
    row_pids = np.asarray(pids, dtype=np.int64)[codes]
    used_pids = np.unique(row_pids).tolist()
    threads = [
        (pid, tid)
        for pid in used_pids
        for tid in np.unique(tids[row_pids == pid]).tolist()
    ]

    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": _PROCESS_NAMES.get(pid, f"pid {pid}")},
        }
        for pid in used_pids
    ] + [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": _thread_label(pid, tid)},
        }
        for pid, tid in threads
    ]
    parts = [json.dumps(event, separators=(",", ":")) for event in meta]
    parts += [
        f'{{"name":{names[code]},"ph":"i","s":"g","ts":{ts},'
        f'"pid":{pids[code]},"tid":{tid}}}'
        if marks[code]
        else f'{{"name":{names[code]},"ph":"X","ts":{ts},"dur":{dur},'
        f'"pid":{pids[code]},"tid":{tid},'
        f'"args":{{"id":{sid},"parent":{parent},"nbytes":{nbytes},"aux":{aux}}}}}'
        for sid, code, tid, ts, dur, parent, nbytes, aux in zip(
            range(len(store)),
            codes.tolist(),
            tids.tolist(),
            _float_literals(ts),
            _float_literals(dur),
            _ints(store.column("parent")),
            _ints(store.column("nbytes")),
            _float_literals(store.column("aux")),
        )
    ]
    return '{"traceEvents":[' + ",".join(parts) + '],"displayTimeUnit":"ms"}'


def telemetry_counter_events(data: Mapping, pid: int = _PID_TELEMETRY) -> list[dict]:
    """Sampled telemetry series -> Chrome counter ("C") events.

    ``data`` is the dict form produced by
    :func:`repro.telemetry.export.load_jsonl` (or ``Telemetry.as_dict``);
    only the sampled ``series`` block is rendered — one counter lane per
    column, timestamps in simulated microseconds.
    """
    series = data.get("series") or {}
    columns = series.get("columns") or []
    rows = series.get("rows") or []
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": _PROCESS_NAMES[_PID_TELEMETRY]},
        }
    ]
    if not columns or not rows:
        return events
    try:
        time_idx = columns.index("time_s")
    except ValueError:
        time_idx = 0
    for row in rows:
        ts = row[time_idx] * _US
        for i, name in enumerate(columns):
            if i == time_idx:
                continue
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"value": row[i]},
                }
            )
    return events


# -- JSONL round trip ---------------------------------------------------------
def to_jsonl(store: SpanStore) -> str:
    """One meta line, then one line per span; bit-exact round trip."""
    meta = json.dumps(
        {"kind": "meta", "format": "repro.spans", "version": 1, "count": len(store)},
        separators=(",", ":"),
    )
    names = [json.dumps(kind) for kind in store.kinds]
    lines = [
        f'{{"id":{sid},"parent":{parent},"node":{node},"start":{start},"end":{end},'
        f'"nbytes":{nbytes},"aux":{aux},"kind":"span","span":{names[code]}}}\n'
        for sid, parent, code, node, start, end, nbytes, aux in zip(
            range(len(store)),
            _ints(store.column("parent")),
            _ints(store.column("kind")),
            _ints(store.column("node")),
            _float_literals(store.column("start")),
            _float_literals(store.column("end")),
            _ints(store.column("nbytes")),
            _float_literals(store.column("aux")),
        )
    ]
    return meta + "\n" + "".join(lines)


#: Numeric JSONL span fields, in :meth:`SpanStore.extend_coded` order.
_NUMERIC_FIELDS = ("parent", "node", "start", "end", "nbytes", "aux")
_numeric_values = operator.itemgetter(*_NUMERIC_FIELDS)
_NUMBER_TYPES = frozenset((int, float))


def from_jsonl(text: str) -> SpanStore:
    """Parse a :func:`to_jsonl` capture; a malformed line raises
    ``ValueError("line N: ...")``."""
    store = SpanStore()
    codes: list[int] = []
    numbers: list = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if type(record) is not dict:
            raise ValueError(f"line {lineno}: expected a JSON object, got {record!r:.40}")
        if record.get("kind") != "span":
            continue
        try:
            kind = record["span"]
            values = _numeric_values(record)
        except KeyError as exc:
            raise ValueError(f"line {lineno}: span has no {exc.args[0]!r} field") from None
        if type(kind) is not str:
            raise ValueError(f"line {lineno}: span kind must be a string, got {kind!r}")
        if not _NUMBER_TYPES.issuperset(map(type, values)):
            name, value = next(
                (name, value)
                for name, value in zip(_NUMERIC_FIELDS, values)
                if type(value) not in _NUMBER_TYPES
            )
            raise ValueError(f"line {lineno}: {name} must be a number, got {value!r}")
        codes.append(store.kind_code(kind))
        numbers.extend(values)
    block = np.array(numbers, dtype=np.float64).reshape(-1, len(_NUMERIC_FIELDS))
    store.extend_coded(np.array(codes, dtype=np.float64), *block.T)
    return store


def load_jsonl(path) -> SpanStore:
    with open(path, "r", encoding="utf-8") as handle:
        return from_jsonl(handle.read())
