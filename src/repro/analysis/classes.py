"""The §2 I/O taxonomy: compulsory, checkpoint, and out-of-core accesses.

The paper (after Miller & Katz) classifies high-performance I/O into:

* **compulsory** — unavoidable reads of input data sets and writes of
  final results;
* **checkpoint** — intermediate state written for restart/reuse and
  (possibly) read back in a later phase or run;
* **out-of-core** — staging traffic to scratch files because the data
  does not fit in memory (cyclic reread of the same data).

We classify *per file* from the trace's own structure: read-only files
touched early are compulsory input; write-only files at the end are
compulsory output; written-then-reread files are checkpoint/staging; and
files re-read over multiple cycles are out-of-core.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..pablo.trace import Trace
from .cyclic import FileCycles, access_cycles
from .file_access import FileAccessMap

__all__ = ["IOClass", "FileClassification", "classify_files", "classify_access"]


class IOClass(enum.Enum):
    """Why the I/O happens (§2)."""

    COMPULSORY_INPUT = "compulsory-input"
    COMPULSORY_OUTPUT = "compulsory-output"
    CHECKPOINT = "checkpoint"
    OUT_OF_CORE = "out-of-core"
    MIXED = "mixed"


@dataclass(frozen=True)
class FileClassification:
    """Classification of one file plus the evidence."""

    file_id: int
    io_class: IOClass
    bytes_read: int
    bytes_written: int
    read_cycles: int


def classify_files(
    trace: Trace, cycle_gap_s: float = 30.0, ooc_min_cycles: int = 3
) -> dict[int, FileClassification]:
    """Classify every file in the trace (see :func:`classify_access`)."""
    amap = FileAccessMap(trace)
    return classify_access(amap, access_cycles(amap, cycle_gap_s), ooc_min_cycles)


def classify_access(
    amap: FileAccessMap, cycles: dict[int, FileCycles], ooc_min_cycles: int = 3
) -> dict[int, FileClassification]:
    """Classify every file of an access map, given its activity cycles.

    Rules, applied in order:

    1. written then re-read in >= ``ooc_min_cycles`` cycles (or re-read
       volume multiple times the written volume) -> OUT_OF_CORE;
    2. written then re-read at all -> CHECKPOINT (staging for reuse);
    3. read-only -> COMPULSORY_INPUT;
    4. write-only -> COMPULSORY_OUTPUT;
    5. anything else -> MIXED.
    """
    out: dict[int, FileClassification] = {}
    for fid, fa in amap.files.items():
        n_read_cycles = 0
        fc = cycles.get(fid)
        if fc is not None and len(fa.read_times):
            first_read = fa.read_times[0]
            n_read_cycles = sum(1 for s, e, _ in fc.cycles if e >= first_read)
        if fa.written_then_read():
            reread_factor = fa.bytes_read / max(fa.bytes_written, 1)
            if n_read_cycles >= ooc_min_cycles or reread_factor >= ooc_min_cycles:
                io_class = IOClass.OUT_OF_CORE
            else:
                io_class = IOClass.CHECKPOINT
        elif fa.read_only:
            io_class = IOClass.COMPULSORY_INPUT
        elif fa.write_only:
            io_class = IOClass.COMPULSORY_OUTPUT
        else:
            io_class = IOClass.MIXED
        out[fid] = FileClassification(
            file_id=fid,
            io_class=io_class,
            bytes_read=fa.bytes_read,
            bytes_written=fa.bytes_written,
            read_cycles=n_read_cycles,
        )
    return out
