"""Full per-application characterization report.

Assembles everything the paper reports for one application run: the
operation table, the size-bucket table, detected phases, per-stream
access-pattern classification, per-file access summaries, and headline
observations ("read-intensive", "seek-dominated", "bimodal sizes").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pablo.events import Op
from ..pablo.trace import Trace
from .classes import FileClassification, classify_access
from .cyclic import FileCycles, ReuseStats, access_cycles, reuse_intervals
from .file_access import FileAccessMap
from .operations import OperationTable
from .patterns import PatternKind, PatternSummary
from .phases import Phase, detect_phases
from .sizes import SizeTable
from .stats import bimodality_coefficient, op_duration_distribution, op_size_distribution

__all__ = ["CharacterizationReport"]


@dataclass
class CharacterizationReport:
    """Everything we characterize about one traced run."""

    trace: Trace
    operations: OperationTable = field(init=False)
    sizes: SizeTable = field(init=False)
    phases: list[Phase] = field(init=False)
    patterns: PatternSummary = field(init=False)
    file_access: FileAccessMap = field(init=False)
    cycles: dict[int, FileCycles] = field(init=False)
    reuse: ReuseStats = field(init=False)
    file_classes: dict[int, FileClassification] = field(init=False)
    phase_window_s: float = 20.0

    def __post_init__(self) -> None:
        self.operations = OperationTable(self.trace)
        self.sizes = SizeTable(self.trace)
        self.phases = detect_phases(self.trace, window_s=self.phase_window_s)
        self.patterns = PatternSummary(self.trace)
        # One access map per report; the cycles and the classes read it.
        self.file_access = FileAccessMap(self.trace)
        self.cycles = access_cycles(self.file_access)
        self.reuse = reuse_intervals(self.trace)
        self.file_classes = classify_access(self.file_access, self.cycles)

    # -- headline observations -------------------------------------------------
    def observations(self) -> list[str]:
        """The §5-§7 style one-liners, derived from the data."""
        out = []
        ops = self.operations
        rvf = ops.read_volume_fraction()
        out.append(f"reads move {100 * rvf:.0f}% of data volume")
        seek_write = ops.time_fraction("Seek", "Write")
        if seek_write > 0.5:
            out.append(f"seeks+writes consume {100 * seek_write:.0f}% of I/O time")
        open_frac = ops.time_fraction("Open")
        if open_frac > 0.3:
            out.append(f"opens consume {100 * open_frac:.0f}% of I/O time")
        wait_frac = ops.time_fraction("I/O Wait")
        if wait_frac > 0.3:
            out.append(f"async I/O wait consumes {100 * wait_frac:.0f}% of I/O time")
        if self.sizes.is_bimodal("read"):
            out.append("read sizes are bimodal")
        seq = self.patterns.fraction(PatternKind.SEQUENTIAL)
        out.append(f"{100 * seq:.0f}% of access streams are sequential")
        cyclic = sum(1 for fc in self.cycles.values() if fc.is_cyclic)
        if cyclic:
            out.append(f"{cyclic} file(s) show cyclic access")
        if self.reuse.reuse_fraction > 0.3:
            out.append(
                f"{100 * self.reuse.reuse_fraction:.0f}% of region touches are "
                f"re-touches (mean reuse interval {self.reuse.mean_interval_s:.1f}s)"
            )
        return out

    def render(self) -> str:
        """Multi-section text report."""
        t = self.trace
        lines = [
            f"=== Characterization: {t.application or 'unnamed'} "
            f"({t.nodes} nodes, {len(t)} events) ===",
            "",
            self.operations.render("Operation summary"),
            "",
            self.sizes.render("Request sizes"),
            "",
            "Phases:",
        ]
        for p in self.phases:
            lines.append(
                f"  [{p.start:>8.1f}, {p.end:>8.1f}) {p.label:<6} "
                f"read={p.read_bytes:,}B write={p.write_bytes:,}B"
            )
        lines.append("")
        lines.append("Observations:")
        for obs in self.observations():
            lines.append(f"  - {obs}")
        lines.append("")
        lines.append("Per-file access:")
        for fid in self.file_access.file_ids():
            fa = self.file_access.files[fid]
            kind = (
                "read-only" if fa.read_only
                else "write-only" if fa.write_only
                else "read+write"
            )
            io_class = self.file_classes.get(fid)
            class_label = io_class.io_class.value if io_class else "-"
            lines.append(
                f"  file {fid:>4} {kind:<10} [{class_label:<17}] "
                f"R={fa.bytes_read:,}B W={fa.bytes_written:,}B "
                f"span={fa.access_span():.1f}s {fa.name}"
            )
        return "\n".join(lines)

    # -- convenience metrics --------------------------------------------------
    def read_bimodality(self) -> float:
        """Bimodality coefficient of read request sizes."""
        import numpy as np

        ev = self.trace.events
        mask = np.isin(ev["op"], [int(Op.READ), int(Op.AREAD)])
        return bimodality_coefficient(ev["nbytes"][mask])

    def mean_duration(self, op: Op) -> float:
        return op_duration_distribution(self.trace, op).mean

    def mean_size(self, op: Op) -> float:
        return op_size_distribution(self.trace, op).mean
