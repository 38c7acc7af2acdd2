"""Cyclic access detection and reuse intervals.

The paper's conclusions (§10): "Cyclic behavior, with repeated patterns
of file open, access, and close, occur often, but the temporal spacing
between requests across cycles is less regular."  This module quantifies
both: per-file access *cycles* (maximal runs of activity separated by
quiet gaps, e.g. HTF's six SCF passes over each integral file) and
*reuse intervals* (time between successive touches of the same file
region — the classic file-caching statistic from the Miller/Katz
lineage the paper builds on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pablo.events import Op
from ..pablo.trace import Trace
from .file_access import FileAccessMap
from .stats import median

__all__ = ["FileCycles", "detect_cycles", "access_cycles", "reuse_intervals", "ReuseStats"]


@dataclass(frozen=True)
class FileCycles:
    """Cycle structure of one file's data accesses."""

    file_id: int
    #: (start, end, op count) per cycle, in time order.
    cycles: tuple[tuple[float, float, int], ...]
    #: Gaps between consecutive cycles.
    gaps: tuple[float, ...]

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def is_cyclic(self) -> bool:
        """Two or more activity cycles."""
        return self.n_cycles >= 2

    def gap_irregularity(self) -> float:
        """Coefficient of variation of inter-cycle gaps (the paper: the
        spacing across cycles 'is less regular'); 0 when < 2 gaps."""
        if len(self.gaps) < 2:
            return 0.0
        gaps = np.asarray(self.gaps)
        mean = gaps.mean()
        return float(gaps.std() / mean) if mean else 0.0


def detect_cycles(trace: Trace, gap_s: float = 30.0) -> dict[int, FileCycles]:
    """Per-file activity cycles: runs of data accesses split at quiet
    gaps of at least ``gap_s`` seconds."""
    return access_cycles(FileAccessMap(trace), gap_s)


def access_cycles(amap: FileAccessMap, gap_s: float = 30.0) -> dict[int, FileCycles]:
    """:func:`detect_cycles` over an access map already built."""
    if gap_s <= 0:
        raise ValueError(f"gap_s must be > 0, got {gap_s}")
    out: dict[int, FileCycles] = {}
    for fid, fa in amap.files.items():
        times = np.sort(np.concatenate([fa.read_times, fa.write_times]))
        breaks = np.nonzero(np.diff(times) >= gap_s)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(times) - 1]])
        cycles = tuple(
            (float(times[s]), float(times[e]), int(e - s + 1))
            for s, e in zip(starts, ends)
        )
        gaps = tuple(
            float(cycles[i + 1][0] - cycles[i][1]) for i in range(len(cycles) - 1)
        )
        out[fid] = FileCycles(fid, cycles, gaps)
    return out


@dataclass(frozen=True)
class ReuseStats:
    """Distribution of region reuse intervals for one trace."""

    n_reuses: int
    n_first_touches: int
    mean_interval_s: float
    median_interval_s: float
    max_interval_s: float

    @property
    def reuse_fraction(self) -> float:
        """Share of region touches that are re-touches."""
        total = self.n_reuses + self.n_first_touches
        return self.n_reuses / total if total else 0.0


def reuse_intervals(
    trace: Trace, region_bytes: int = 64 * 1024, file_id: int | None = None
) -> ReuseStats:
    """Time between successive touches of the same (file, region).

    Long mean intervals with high reuse fractions are the signature of
    cyclic rereads (HTF pscf); near-zero reuse marks write-once data
    (RENDER frames).
    """
    if region_bytes <= 0:
        raise ValueError(f"region_bytes must be > 0, got {region_bytes}")
    ev = trace.events
    data = ev[np.isin(ev["op"], [int(Op.READ), int(Op.AREAD), int(Op.WRITE)])]
    if file_id is not None:
        data = data[data["file_id"] == file_id]
    data = data[np.argsort(data["timestamp"], kind="stable")]
    # Expand each row into its (file, region) touches, in the order a
    # row-by-row walk would visit them: rows by time, regions ascending.
    first_region = data["offset"] // region_bytes
    last_region = (data["offset"] + np.maximum(data["nbytes"], 1) - 1) // region_bytes
    counts = last_region - first_region + 1
    row = np.repeat(np.arange(len(data)), counts)
    position = np.arange(len(row))
    region = first_region[row] + (position - (np.cumsum(counts) - counts)[row])
    fid = data["file_id"][row]
    t = data["timestamp"][row]
    # A touch's previous touch of its key is its neighbour in a sort by
    # (file, region, position).
    by_key = np.lexsort((position, region, fid))
    same = (fid[by_key[1:]] == fid[by_key[:-1]]) & (region[by_key[1:]] == region[by_key[:-1]])
    later, earlier = by_key[1:][same], by_key[:-1][same]
    prev_t = np.empty_like(t)
    prev_t[later] = t[earlier]
    is_reuse = np.zeros(len(t), dtype=bool)
    is_reuse[later] = True
    # Keep walk order: the mean then sums the intervals in the walk's order.
    arr = t[is_reuse] - prev_t[is_reuse]
    first = len(t) - len(arr)
    return ReuseStats(
        n_reuses=len(arr),
        n_first_touches=first,
        mean_interval_s=float(arr.mean()) if len(arr) else 0.0,
        median_interval_s=median(arr) if len(arr) else 0.0,
        max_interval_s=float(arr.max()) if len(arr) else 0.0,
    )
