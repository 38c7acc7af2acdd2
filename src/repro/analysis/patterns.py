"""Spatial access-pattern classification.

Classifies, per (node, file) access stream, whether the offsets form a
sequential, strided (constant non-contiguous gap), or irregular pattern —
the axes of the paper's "sequential and highly irregular access patterns"
observation, and the signal the adaptive prefetcher (§10,
:mod:`repro.ppfs.adaptive`) keys on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..pablo.events import Op
from ..pablo.trace import Trace

__all__ = ["PatternKind", "StreamPattern", "classify_offsets", "PatternSummary"]


class PatternKind(enum.Enum):
    """Spatial structure of one access stream."""

    SEQUENTIAL = "sequential"
    STRIDED = "strided"
    IRREGULAR = "irregular"
    SINGLE = "single"  # too few accesses to classify


def classify_offsets(
    offsets: np.ndarray, sizes: np.ndarray, tolerance: float = 0.05
) -> PatternKind:
    """Classify an ordered (offset, size) stream.

    * **sequential** — each access starts where the previous ended (at
      least ``1 - tolerance`` of steps);
    * **strided** — start-to-start deltas are a constant non-sequential
      stride (at least ``1 - tolerance`` of steps);
    * **irregular** — anything else;
    * **single** — fewer than 3 accesses.

    >>> classify_offsets(np.array([0, 100, 200]), np.array([100, 100, 100]))
    <PatternKind.SEQUENTIAL: 'sequential'>
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(offsets) != len(sizes):
        raise ValueError("offsets and sizes must have equal length")
    if len(offsets) < 3:
        return PatternKind.SINGLE
    ends = offsets[:-1] + sizes[:-1]
    seq_steps = offsets[1:] == ends
    n_steps = len(seq_steps)
    if seq_steps.sum() >= (1 - tolerance) * n_steps:
        return PatternKind.SEQUENTIAL
    deltas = np.diff(offsets)
    # Dominant stride: the most common start-to-start delta.
    vals, counts = np.unique(deltas, return_counts=True)
    top = counts.max()
    if top >= (1 - tolerance) * n_steps and vals[counts.argmax()] != 0:
        return PatternKind.STRIDED
    return PatternKind.IRREGULAR


@dataclass(frozen=True)
class StreamPattern:
    """Classification of one (node, file) stream."""

    node: int
    file_id: int
    kind: PatternKind
    n_accesses: int
    bytes_accessed: int


class PatternSummary:
    """Classify every (node, file) read/write stream in a trace."""

    def __init__(self, trace: Trace, kind: str = "both", tolerance: float = 0.05):
        ev = trace.events
        if kind == "read":
            ops = [int(Op.READ), int(Op.AREAD)]
        elif kind == "write":
            ops = [int(Op.WRITE)]
        elif kind == "both":
            ops = [int(Op.READ), int(Op.AREAD), int(Op.WRITE)]
        else:
            raise ValueError(f"kind must be read/write/both, got {kind!r}")
        self.streams: list[StreamPattern] = []
        if len(ev) == 0:
            return
        sel = ev[np.isin(ev["op"], ops)]
        # Stable sort by (node, file, time): per-stream order preserved.
        order = np.lexsort((sel["timestamp"], sel["file_id"], sel["node"]))
        sel = sel[order]
        if len(sel) == 0:
            return
        keys = np.stack([sel["node"].astype(np.int64), sel["file_id"].astype(np.int64)], axis=1)
        change = np.any(keys[1:] != keys[:-1], axis=1)
        boundaries = np.concatenate([[0], np.nonzero(change)[0] + 1, [len(sel)]])
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            chunk = sel[lo:hi]
            self.streams.append(
                StreamPattern(
                    node=int(chunk["node"][0]),
                    file_id=int(chunk["file_id"][0]),
                    kind=classify_offsets(chunk["offset"], chunk["nbytes"], tolerance),
                    n_accesses=int(hi - lo),
                    bytes_accessed=int(chunk["nbytes"].sum()),
                )
            )

    def fraction(self, kind: PatternKind, weight: str = "streams") -> float:
        """Share of streams (or accesses) with the given pattern."""
        if not self.streams:
            return 0.0
        if weight == "streams":
            total = len(self.streams)
            hit = sum(1 for s in self.streams if s.kind is kind)
        elif weight == "accesses":
            total = sum(s.n_accesses for s in self.streams)
            hit = sum(s.n_accesses for s in self.streams if s.kind is kind)
        else:
            raise ValueError(f"weight must be streams/accesses, got {weight!r}")
        return hit / total if total else 0.0
