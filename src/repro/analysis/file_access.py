"""File access timelines (paper Figures 5, 8, 15-17).

The paper's file-access figures plot, for every file, when it was read
(diamonds) and written (crosses) over the run.  :class:`FileAccessMap`
extracts the per-file event series plus the derived observations the
paper draws from the figures: which files are read-only/write-only,
whether output files show the 'staircase' of being written once in their
entirety (RENDER), and whether per-node files are written in one phase
and reread in another (HTF).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pablo.events import Op
from ..pablo.trace import Trace

__all__ = ["FileAccess", "FileAccessMap", "ascii_access_map"]


@dataclass(frozen=True)
class FileAccess:
    """Access summary for one file."""

    file_id: int
    name: str
    read_times: np.ndarray
    write_times: np.ndarray
    bytes_read: int
    bytes_written: int

    @property
    def first_access(self) -> float:
        candidates = []
        if len(self.read_times):
            candidates.append(self.read_times[0])
        if len(self.write_times):
            candidates.append(self.write_times[0])
        return float(min(candidates)) if candidates else float("nan")

    @property
    def last_access(self) -> float:
        candidates = []
        if len(self.read_times):
            candidates.append(self.read_times[-1])
        if len(self.write_times):
            candidates.append(self.write_times[-1])
        return float(max(candidates)) if candidates else float("nan")

    @property
    def read_only(self) -> bool:
        return len(self.read_times) > 0 and len(self.write_times) == 0

    @property
    def write_only(self) -> bool:
        return len(self.write_times) > 0 and len(self.read_times) == 0

    def written_then_read(self) -> bool:
        """True when every read follows every write (HTF integral files,
        ESCAT staging files)."""
        if not len(self.read_times) or not len(self.write_times):
            return False
        return self.write_times.max() <= self.read_times.min()

    def access_span(self) -> float:
        """Seconds between first and last access."""
        return self.last_access - self.first_access


class FileAccessMap:
    """Per-file read/write time series for a whole trace."""

    def __init__(self, trace: Trace):
        ev = trace.events
        self.files: dict[int, FileAccess] = {}
        # Data row indices in one stable sort by (file, time); each file is
        # then one slice of the reads and of the writes, times in order.
        # Gathering columns rather than copying rows keeps peak RSS down.
        rows = np.flatnonzero(np.isin(ev["op"], [int(Op.READ), int(Op.AREAD), int(Op.WRITE)]))
        rows = rows[np.lexsort((ev["timestamp"][rows], ev["file_id"][rows]))]
        writes = ev["op"][rows] == int(Op.WRITE)
        fid = ev["file_id"][rows]
        fids = np.concatenate([fid[:1], fid[1:][fid[1:] != fid[:-1]]])  # sorted by file
        per_file = (_by_file(ev, rows[~writes], fids), _by_file(ev, rows[writes], fids))
        for fid, (r_times, r_bytes), (w_times, w_bytes) in zip(fids.tolist(), *per_file):
            self.files[fid] = FileAccess(
                fid, trace.file_names.get(fid, ""), r_times, w_times, r_bytes, w_bytes
            )

    def __len__(self) -> int:
        return len(self.files)

    def file_ids(self) -> list[int]:
        return sorted(self.files)

    def staircase(self) -> list[FileAccess]:
        """Write-only files accessed in one contiguous visit, ordered by
        first access — RENDER's per-frame output files form a staircase
        on the figure."""
        singles = [fa for fa in self.files.values() if fa.write_only]
        return sorted(singles, key=lambda fa: fa.first_access)

    def is_staircase(self, file_ids: list[int], overlap_tolerance: float = 0.0) -> bool:
        """True when the given files are written in strictly advancing,
        non-interleaved visits."""
        accesses = [self.files[fid] for fid in file_ids if fid in self.files]
        accesses.sort(key=lambda fa: fa.first_access)
        for prev, nxt in zip(accesses, accesses[1:]):
            if nxt.first_access + overlap_tolerance < prev.last_access:
                return False
        return True


def _by_file(ev: np.ndarray, rows: np.ndarray, fids: np.ndarray) -> list:
    """(times, bytes) of each file's share of ``rows``, sorted by file."""
    times = ev["timestamp"][rows].astype(float)
    total = np.concatenate([[0], np.cumsum(ev["nbytes"][rows])])
    fid = ev["file_id"][rows]
    lo, hi = (np.searchsorted(fid, fids, side).tolist() for side in ("left", "right"))
    return [(times[a:b], int(total[b] - total[a])) for a, b in zip(lo, hi)]


def ascii_access_map(
    amap: FileAccessMap, width: int = 72, t_end: float | None = None
) -> str:
    """Terminal rendering of the access map: one row per file,
    ``x`` for writes (the paper's crosses), ``o`` for reads (diamonds),
    ``#`` where both fall in the same column."""
    if not amap.files:
        return "(no file accesses)"
    t0 = min(fa.first_access for fa in amap.files.values())
    t1 = t_end if t_end is not None else max(fa.last_access for fa in amap.files.values())
    span = (t1 - t0) or 1.0
    lines = [f"{'file':>6} |{'':{width}}| (x=write o=read #=both)"]
    for fid in amap.file_ids():
        fa = amap.files[fid]
        row = [" "] * width
        for t in fa.write_times:
            c = min(int((t - t0) / span * (width - 1)), width - 1)
            row[c] = "x"
        for t in fa.read_times:
            c = min(int((t - t0) / span * (width - 1)), width - 1)
            row[c] = "#" if row[c] == "x" else "o"
        lines.append(f"{fid:>6} |" + "".join(row) + "|")
    lines.append(f"{'':>6}  {t0:<10.1f}{'time (s)':^{max(0, width - 20)}}{t1:>10.1f}")
    return "\n".join(lines)
