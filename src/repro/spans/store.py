"""Columnar span store for causal request traces.

Same storage discipline as :class:`repro.telemetry.series.TimeSeries`
and :class:`repro.pablo.trace.Trace`: one preallocated float64 buffer
grown by doubling, a zero-copy view over the filled prefix, and a
SHA-256 ``content_hash`` so two runs' span trees can be compared
byte-for-byte.  Span kinds are interned to integer codes against a
per-store string table, which keeps the row a fixed-width float64
record (ints up to 2**53 round-trip exactly through float64, far above
any span id, node index, or byte count the simulator produces).

Scalar inserts (:meth:`add` / :meth:`begin`) are the per-operation hot
path of a spans-on run, so they stage into a flat ``array('d')`` and
only land in the numpy buffer when a columnar consumer forces a flush
(a :meth:`rows` access or an :meth:`extend` wave) — one C-level
``extend`` of a 7-tuple costs a fraction of seven element-wise numpy
scalar stores, and the flush itself is a single ``np.frombuffer``
reshape instead of a per-row Python conversion.  Ids are assigned at
stage time, so parenting across the staged/flushed boundary needs no
translation.

A span is ``(parent, kind, node, start, end, nbytes, aux)``:

* ``parent`` — row index of the enclosing span, or ``-1`` for a root.
* ``kind``   — interned code; see :meth:`SpanStore.kind_name`.
* ``node``   — compute-node / I/O-node index, or ``-1`` machine-wide.
* ``start``/``end`` — simulated seconds.  Spans opened with
  :meth:`begin` carry ``end = -1`` until :meth:`finish`.
* ``nbytes`` — payload size where meaningful, else 0.
* ``aux``    — kind-specific extra (flush run count, retry
  attempt number, file id, ...).
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterator, Mapping

import numpy as np

__all__ = ["SpanStore", "COLUMNS"]

COLUMNS = ("parent", "kind", "node", "start", "end", "nbytes", "aux")

_INITIAL_CAPACITY = 256
_NCOL = len(COLUMNS)
_PARENT, _KIND, _NODE, _START, _END, _NBYTES, _AUX = range(7)


class SpanStore:
    """Append-only (n_spans, 7) float64 buffer holding a span forest."""

    __slots__ = ("_buffer", "_count", "_staged", "_frozen", "_kinds", "_codes")

    def __init__(self) -> None:
        self._buffer = np.zeros((_INITIAL_CAPACITY, len(COLUMNS)), dtype=np.float64)
        self._count = 0
        #: Flat row-major scalar rows appended since the last flush;
        #: ``_count`` includes them, so a staged span's id is already its
        #: final row index.
        self._staged: array = array("d")
        self._frozen: np.ndarray | None = None
        self._kinds: list[str] = []
        self._codes: dict[str, int] = {}

    def __len__(self) -> int:
        return self._count

    def kind_code(self, kind: str) -> int:
        """Intern ``kind`` and return its stable integer code."""
        code = self._codes.get(kind)
        if code is None:
            code = len(self._kinds)
            self._codes[kind] = code
            self._kinds.append(kind)
        return code

    def kind_name(self, code: int) -> str:
        return self._kinds[int(code)]

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(self._kinds)

    def add(
        self,
        kind: str,
        node: int,
        start: float,
        end: float,
        parent: int = -1,
        nbytes: int = 0,
        aux: float = 0.0,
    ) -> int:
        """Record a fully-known span; returns its id (row index)."""
        code = self._codes.get(kind)
        if code is None:
            code = self.kind_code(kind)
        sid = self._count
        self._staged.extend((parent, code, node, start, end, nbytes, aux))
        self._count = sid + 1
        return sid

    def begin(
        self,
        kind: str,
        node: int,
        start: float,
        parent: int = -1,
        nbytes: int = 0,
        aux: float = 0.0,
    ) -> int:
        """Open a span whose end is not yet known (``end = -1``)."""
        code = self._codes.get(kind)
        if code is None:
            code = self.kind_code(kind)
        sid = self._count
        self._staged.extend((parent, code, node, start, -1.0, nbytes, aux))
        self._count = sid + 1
        return sid

    def finish(self, sid: int, end: float) -> None:
        """Close a span opened with :meth:`begin`."""
        staged = self._staged
        base = self._count - len(staged) // _NCOL
        if sid >= base:
            staged[(sid - base) * _NCOL + _END] = end
        else:
            self._buffer[sid, _END] = end

    def close_open(self, end: float) -> int:
        """Clamp every still-open span to ``end``; returns how many."""
        rows = self.rows
        open_ = rows[:, _END] < rows[:, _START]
        n = int(np.count_nonzero(open_))
        if n:
            self._buffer[: self._count][open_, _END] = end
        return n

    def extend(
        self,
        kind: str,
        parent: np.ndarray,
        node: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        nbytes: np.ndarray | float = 0.0,
        aux: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Append one wave of same-kind spans columnar-fashion.

        Returns the new span ids as an int64 array (for use as parents of
        the next wave).  Used by the recorder's finalize expansion.
        """
        m = len(start)
        if m == 0:
            return np.empty(0, dtype=np.int64)
        self._flush()
        n = self._count
        if n + m > self._buffer.shape[0]:
            self._grow(n + m - 1)
        block = self._buffer[n : n + m]
        block[:, _PARENT] = parent
        block[:, _KIND] = self.kind_code(kind)
        block[:, _NODE] = node
        block[:, _START] = start
        block[:, _END] = end
        block[:, _NBYTES] = nbytes
        block[:, _AUX] = aux
        self._count = n + m
        self._frozen = None
        return np.arange(n, n + m, dtype=np.int64)

    def extend_coded(
        self,
        codes: np.ndarray,
        parent: np.ndarray,
        node: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        nbytes: np.ndarray | float = 0.0,
        aux: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Like :meth:`extend` but with a per-row kind-code column
        (codes from :meth:`kind_code`) — one wave for mixed kinds."""
        m = len(start)
        if m == 0:
            return np.empty(0, dtype=np.int64)
        self._flush()
        n = self._count
        if n + m > self._buffer.shape[0]:
            self._grow(n + m - 1)
        block = self._buffer[n : n + m]
        block[:, _PARENT] = parent
        block[:, _KIND] = codes
        block[:, _NODE] = node
        block[:, _START] = start
        block[:, _END] = end
        block[:, _NBYTES] = nbytes
        block[:, _AUX] = aux
        self._count = n + m
        self._frozen = None
        return np.arange(n, n + m, dtype=np.int64)

    def reserve(self, extra: int) -> None:
        """Pre-size the buffer for ``extra`` more rows (one grow+copy
        instead of doubling through several)."""
        need = self._count + extra
        if need > self._buffer.shape[0]:
            self._grow(need - 1)

    def _flush(self) -> None:
        """Land staged scalar rows in the columnar buffer."""
        staged = self._staged
        if not staged:
            return
        m = len(staged) // _NCOL
        n = self._count - m
        if self._count > self._buffer.shape[0]:
            self._grow(self._count - 1)
        self._buffer[n : self._count] = np.frombuffer(staged, dtype=np.float64).reshape(
            m, _NCOL
        )
        self._staged = array("d")

    def _grow(self, need: int) -> None:
        capacity = self._buffer.shape[0]
        while capacity <= need:
            capacity *= 2
        grown = np.empty((capacity, self._buffer.shape[1]), dtype=np.float64)
        flushed = self._count - len(self._staged) // _NCOL
        grown[:flushed] = self._buffer[:flushed]
        self._buffer = grown

    @property
    def rows(self) -> np.ndarray:
        """Zero-copy view over the filled prefix."""
        if self._frozen is None or self._staged:
            self._flush()
            self._frozen = self._buffer[: self._count]
        return self._frozen

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, COLUMNS.index(name)]

    def span(self, sid: int) -> dict:
        """One span as a plain dict with the kind resolved to its name."""
        row = self.rows[sid]
        return {
            "id": sid,
            "parent": int(row[_PARENT]),
            "kind": self._kinds[int(row[_KIND])],
            "node": int(row[_NODE]),
            "start": float(row[_START]),
            "end": float(row[_END]),
            "nbytes": int(row[_NBYTES]),
            "aux": float(row[_AUX]),
        }

    def iter_spans(self) -> Iterator[dict]:
        """Every span as :meth:`span` returns it, columns converted once."""
        rows = self.rows
        kinds = self._kinds
        parents, codes, nodes, nbytes = (
            rows[:, [_PARENT, _KIND, _NODE, _NBYTES]].astype(np.int64).T.tolist()
        )
        starts, ends, auxs = rows[:, [_START, _END, _AUX]].T.tolist()
        for sid, parent, code, node, start, end, size, aux in zip(
            range(len(rows)), parents, codes, nodes, starts, ends, nbytes, auxs
        ):
            yield {
                "id": sid,
                "parent": parent,
                "kind": kinds[code],
                "node": node,
                "start": start,
                "end": end,
                "nbytes": size,
                "aux": aux,
            }

    def children_index(self) -> dict[int, list[int]]:
        """parent id -> list of direct child ids (roots under -1)."""
        index: dict[int, list[int]] = {}
        parents = self.rows[:, _PARENT].astype(np.int64)
        for sid, parent in enumerate(parents):
            index.setdefault(int(parent), []).append(sid)
        return index

    def content_hash(self) -> str:
        """SHA-256 over the kind table + row bytes."""
        digest = hashlib.sha256()
        digest.update("\x1f".join(self._kinds).encode())
        digest.update(b"\x1e")
        digest.update("\x1f".join(COLUMNS).encode())
        digest.update(np.ascontiguousarray(self.rows).tobytes())
        return digest.hexdigest()

    def as_dict(self) -> dict:
        return {
            "columns": list(COLUMNS),
            "kinds": list(self._kinds),
            "rows": self.rows.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpanStore":
        store = cls()
        for kind in data["kinds"]:
            store.kind_code(kind)
        columns = data.get("columns", list(COLUMNS))
        if list(columns) != list(COLUMNS):
            raise ValueError(f"unknown span columns: {columns!r}")
        rows = data["rows"]
        for i, row in enumerate(rows):
            if len(row) != _NCOL:
                raise ValueError(f"span row {i} has {len(row)} values, expected {_NCOL}")
        block = np.array(rows, dtype=np.float64).reshape(-1, _NCOL)
        store.extend_coded(block[:, _KIND], block[:, _PARENT], *block[:, _NODE:].T)
        return store

    def summary(self) -> dict:
        """Aggregate per-kind counts / durations for quick reports."""
        rows = self.rows
        out: dict[str, dict] = {}
        kinds = rows[:, _KIND].astype(np.int64)
        durations = rows[:, _END] - rows[:, _START]
        for code, name in enumerate(self._kinds):
            mask = kinds == code
            count = int(np.count_nonzero(mask))
            if not count:
                continue
            out[name] = {
                "count": count,
                "total_s": float(durations[mask].sum()),
                "max_s": float(durations[mask].max()),
                "bytes": int(rows[mask, _NBYTES].sum()),
            }
        return out
