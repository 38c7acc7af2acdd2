"""Span exporters: Chrome trace-event JSON (Perfetto) and JSONL.

The Chrome writer emits the trace-event format understood by Perfetto
and ``chrome://tracing``: one complete ("X") event per span, organized
into one process track per layer (compute nodes / I/O nodes / disks /
background services) with one thread lane per node index.  Timestamps
are microseconds of simulated time.

The same low-level writer is reused by ``repro telemetry export
--format chrome`` to render sampled time series as counter ("C")
events, so spans and telemetry land in one Perfetto timeline.

Both span writers format straight from the store's columns, a block of
rows at a time (``to_*`` joins the blocks, ``write_*`` hands each to a
file); per-kind values are resolved once per kind code and a writer's
floats are spelled in one pass.  The bytes are exactly what ``json.dumps``
writes for the equivalent per-span dicts — same key order, floats as
``float.__repr__``, non-finite values as ``NaN``/``Infinity``/
``-Infinity``, kinds escaped with ``ensure_ascii``.
"""

from __future__ import annotations

import json
import operator
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

from ..util import distinct
from .store import SpanStore

__all__ = [
    "chrome_trace_json",
    "to_chrome",
    "to_chrome_json",
    "write_chrome_json",
    "telemetry_counter_events",
    "to_jsonl",
    "write_jsonl",
    "from_jsonl",
    "load_jsonl",
]

_US = 1e6

#: Rows per text block: bounds what a writer holds besides its output.
_BLOCK_ROWS = 2048

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


def chrome_trace_json(events: Iterable[Mapping]) -> str:
    """Raw trace events alone in the Chrome trace-object envelope."""
    return _joined(_chrome_blocks(SpanStore(), events))


def _ints(column: np.ndarray) -> list[int]:
    return column.astype(np.int64).tolist()


def _joined(blocks: Iterable[str]) -> str:
    """The blocks as one string via one growing buffer: a freed list of blocks
    leaves the heap in pieces too small for the next copy of the text."""
    text = bytearray()
    for block in blocks:
        text += block.encode()
    return text.decode()


def _speller(columns: list[np.ndarray]):
    """``spell(values) -> list[str]``, each value as ``json.dumps`` writes it.
    Span columns repeat values (shared boundaries, constant ``aux``), so each
    distinct bit pattern in ``columns`` is spelled once; ``-0.0`` is not ``0.0``."""
    bits = distinct(np.concatenate([column.view(np.int64) for column in columns]))
    values = bits.view(np.float64)
    table = np.fromiter(map(float.__repr__, values), dtype=object, count=len(values))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        table[i] = json.dumps(float(values[i]))
    return lambda column: table[np.searchsorted(bits, column.view(np.int64))].tolist()


def to_chrome(store: SpanStore) -> dict:
    """Span store -> Chrome trace object (one track per node/ionode/disk)."""
    return json.loads(to_chrome_json(store))


def to_chrome_json(store: SpanStore) -> str:
    """Span store -> Chrome trace-event JSON: thread/process metadata
    first, then one instant ("i") event per ``mark.*`` span and one
    complete ("X") event per other span, in span-id order."""
    return _joined(_chrome_blocks(store))


def write_chrome_json(store: SpanStore, handle: TextIO, events: Iterable[Mapping] = ()) -> None:
    """:func:`to_chrome_json` written to ``handle`` block by block, with
    ``events`` (e.g. :func:`telemetry_counter_events`) after the spans."""
    handle.writelines(_chrome_blocks(store, events))


def _chrome_times(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chrome ``ts`` and ``dur`` in microseconds, with IEEE results (inf - inf
    = nan, overflow to inf) as Python floats give them."""
    with np.errstate(invalid="ignore", over="ignore"):
        lengths = ends - starts
        # where(d < 0, 0, d) is Python's max(d, 0.0), -0.0 and NaN included.
        return starts * _US, np.where(lengths < 0, 0.0, lengths) * _US


def _chrome_meta(pids: list[int], codes: np.ndarray, nodes: np.ndarray) -> list[dict]:
    """Process and thread metadata events for the pid and tid lanes in use."""
    row_pids = np.asarray(pids, dtype=np.int64)[codes.astype(np.int64)]
    tids = np.maximum(nodes.astype(np.int64), 0)
    used_pids = distinct(row_pids).tolist()
    return [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": _PROCESS_NAMES.get(pid, f"pid {pid}")}}
        for pid in used_pids
    ] + [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": _thread_label(pid, tid)}}
        for pid in used_pids
        for tid in distinct(tids[row_pids == pid]).tolist()
    ]


def _chrome_blocks(store: SpanStore, events: Iterable[Mapping] = ()) -> Iterator[str]:
    names = [json.dumps(kind) for kind in store.kinds]
    pids = [_kind_pid(kind) for kind in store.kinds]
    marks = [kind.startswith("mark.") for kind in store.kinds]
    parents, codes, nodes, starts, ends, sizes, auxes = store.rows.T
    meta = [json.dumps(e, separators=(",", ":")) for e in _chrome_meta(pids, codes, nodes)]
    yield '{"traceEvents":[' + ",".join(meta)
    spell = _speller([*_chrome_times(starts, ends), auxes])
    for lo in range(0, len(store), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        stamps, durations = _chrome_times(starts[lo:hi], ends[lo:hi])
        # Every span has a pid, so metadata always precedes the first block.
        yield "," + ",".join([
            f'{{"name":{names[code]},"ph":"i","s":"g","ts":{ts},'
            f'"pid":{pids[code]},"tid":{tid}}}'
            if marks[code]
            else f'{{"name":{names[code]},"ph":"X","ts":{ts},"dur":{dur},'
            f'"pid":{pids[code]},"tid":{tid},'
            f'"args":{{"id":{sid},"parent":{parent},"nbytes":{nbytes},"aux":{aux}}}}}'
            for sid, code, tid, ts, dur, parent, nbytes, aux in zip(
                range(lo, hi),
                _ints(codes[lo:hi]),
                np.maximum(nodes[lo:hi].astype(np.int64), 0).tolist(),
                spell(stamps),
                spell(durations),
                _ints(parents[lo:hi]),
                _ints(sizes[lo:hi]),
                spell(auxes[lo:hi]),
            )
        ])
    events = [json.dumps(event, separators=(",", ":")) for event in events]
    if events:
        yield ("," if meta else "") + ",".join(events)
    yield '],"displayTimeUnit":"ms"}'


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
    return _joined(_jsonl_blocks(store))


def write_jsonl(store: SpanStore, handle: TextIO) -> None:
    """:func:`to_jsonl` written to ``handle`` block by block."""
    handle.writelines(_jsonl_blocks(store))


def _jsonl_blocks(store: SpanStore) -> Iterator[str]:
    meta = {"kind": "meta", "format": "repro.spans", "version": 1, "count": len(store)}
    yield json.dumps(meta, separators=(",", ":")) + "\n"
    names = [json.dumps(kind) for kind in store.kinds]
    parents, codes, nodes, starts, ends, sizes, auxes = store.rows.T
    spell = _speller([starts, ends, auxes])
    for lo in range(0, len(store), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        yield "".join([
            f'{{"id":{sid},"parent":{parent},"node":{node},"start":{start},"end":{end},'
            f'"nbytes":{nbytes},"aux":{aux},"kind":"span","span":{names[code]}}}\n'
            for sid, parent, code, node, start, end, nbytes, aux in zip(
                range(lo, hi),
                _ints(parents[lo:hi]),
                _ints(codes[lo:hi]),
                _ints(nodes[lo:hi]),
                spell(starts[lo:hi]),
                spell(ends[lo:hi]),
                _ints(sizes[lo:hi]),
                spell(auxes[lo:hi]),
            )
        ])


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
