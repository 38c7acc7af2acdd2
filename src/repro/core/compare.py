"""Cross-application comparison — the §8 observations, derived from data.

Given traces of several applications, verifies and tabulates the paper's
file-system-implications findings:

* wide variety of read/write mixes and request sizes (a few bytes to
  several megabytes);
* no single request-size characterization is viable across codes;
* files are generally read or written in their entirety, often by a
  single node;
* most data written propagates to secondary storage (write caching must
  raise achieved bandwidth, not reduce volume).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pablo.events import Op
from ..pablo.trace import Trace
from ..analysis.file_access import FileAccessMap
from ..analysis.operations import OperationTable
from ..analysis.sizes import SizeTable

__all__ = ["AppSummary", "CrossAppComparison"]


@dataclass(frozen=True)
class AppSummary:
    """Headline numbers for one application."""

    name: str
    operations: int
    volume_bytes: int
    read_volume_fraction: float
    min_request: int
    max_request: int
    dominant_time_op: str
    bimodal_reads: bool
    single_node_io_fraction: float  # share of ops issued by the busiest node


class CrossAppComparison:
    """Build and render the §8 cross-application table."""

    def __init__(self, traces: dict[str, Trace]):
        if not traces:
            raise ValueError("need at least one trace")
        self.traces = traces
        self.summaries = [self._summarize(name, tr) for name, tr in traces.items()]

    @staticmethod
    def _summarize(name: str, trace: Trace) -> AppSummary:
        ops = OperationTable(trace)
        sizes = SizeTable(trace)
        ev = trace.events
        data_mask = np.isin(ev["op"], [int(Op.READ), int(Op.AREAD), int(Op.WRITE)])
        data = ev[data_mask]
        nonzero = data["nbytes"][data["nbytes"] > 0]
        dominant = max(ops.rows, key=lambda r: r.node_time_s).label if ops.rows else ""
        if len(ev):
            _, counts = np.unique(ev["node"], return_counts=True)
            single_frac = float(counts.max()) / len(ev)
        else:
            single_frac = 0.0
        return AppSummary(
            name=name,
            operations=int(len(ev)),
            volume_bytes=ops.all_row.volume,
            read_volume_fraction=ops.read_volume_fraction(),
            min_request=int(nonzero.min()) if len(nonzero) else 0,
            max_request=int(nonzero.max()) if len(nonzero) else 0,
            dominant_time_op=dominant,
            bimodal_reads=sizes.is_bimodal("read"),
            single_node_io_fraction=single_frac,
        )

    # -- §8 predicates ---------------------------------------------------------
    def request_size_spread(self) -> tuple[int, int]:
        """(smallest, largest) nonzero request across every application."""
        lo = min(s.min_request for s in self.summaries if s.min_request)
        hi = max(s.max_request for s in self.summaries)
        return lo, hi

    def no_single_characterization(self) -> bool:
        """True when apps disagree on read/write dominance, on which
        operation dominates their I/O time, or on size modality — the
        paper's 'no simple characterization is viable' claim."""
        read_heavy = {s.name for s in self.summaries if s.read_volume_fraction > 0.5}
        return (
            0 < len(read_heavy) < len(self.summaries)
            or len({s.bimodal_reads for s in self.summaries}) > 1
            or len({s.dominant_time_op for s in self.summaries}) > 1
        )

    def whole_file_fraction(self, name: str) -> float:
        """Share of files read or written (nearly) in their entirety."""
        amap = FileAccessMap(self.traces[name])
        if not amap.files:
            return 0.0
        whole = 0
        for fa in amap.files.values():
            touched = max(fa.bytes_read, fa.bytes_written)
            span = max(fa.bytes_read, fa.bytes_written, 1)
            # "In their entirety": the dominant direction touched at least
            # as many bytes as the larger of the two directions (files are
            # streamed through, not sampled).
            if touched >= 0.9 * span:
                whole += 1
        return whole / len(amap.files)

    def render(self) -> str:
        """Text table of per-app summaries."""
        header = (
            f"{'App':<12} {'Ops':>8} {'Volume':>14} {'Read%':>6} "
            f"{'MinReq':>8} {'MaxReq':>10} {'TopTimeOp':>10} {'Bimodal':>8} {'1-node%':>8}"
        )
        lines = [header, "-" * len(header)]
        for s in self.summaries:
            lines.append(
                f"{s.name:<12} {s.operations:>8,} {s.volume_bytes:>14,} "
                f"{100 * s.read_volume_fraction:>5.0f}% {s.min_request:>8,} "
                f"{s.max_request:>10,} {s.dominant_time_op:>10} "
                f"{str(s.bimodal_reads):>8} {100 * s.single_node_io_fraction:>7.0f}%"
            )
        lo, hi = self.request_size_spread()
        lines.append(
            f"Request sizes span {lo:,} B to {hi:,} B "
            f"({hi / max(lo, 1):,.0f}x) across applications."
        )
        return "\n".join(lines)
