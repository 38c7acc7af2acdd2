"""Write-behind buffering with global aggregation.

The §5.2 experiment: ESCAT's synchronized 2 KB writes complete into
client/server buffers immediately, and a background flusher drains them
as large coalesced transfers — "this combination of policies effectively
eliminated the behavior seen in Figure 4".

The manager keeps one :class:`~repro.ppfs.aggregation.ExtentSet` per
file.  Runs reaching ``aggregate_min_bytes`` are drained eagerly; small
fragments drain on an interval timer.  Flush transfers bypass the PFS
shared-file token (PPFS owns consistency at the servers) and go straight
to the I/O-node queues, off every application thread's critical path.
All buffered data is durable by the time :meth:`drain_file` (called from
close) returns — write caching here increases achieved bandwidth, it
does not reduce the volume reaching disk (§8).

The flusher has one path.  A batch of drainable runs decomposes in one
vectorized pass; fault-free, each I/O node's chunks go onto its queue as
one :meth:`~repro.machine.ionode.IONode.submit_batch` cohort, and under
fault injection each chunk goes through the shared retry attempt loop
(:meth:`repro.pfs.retry.Retry.run`) instead.  One countdown per batch
tracks it until it is durable — no per-run flush Process, no per-chunk
serve generator.  ``ExtentSet.max_run_bytes`` lets :meth:`submit` skip
the drain scan entirely when no pending run can qualify yet, which is
the common case under aggregation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..pfs.file import PFSFile
from ..pfs.striping import Chunk
from ..sim.core import Event
from .aggregation import ExtentSet

if TYPE_CHECKING:  # pragma: no cover
    from .server import PPFS

__all__ = ["WriteBehindManager"]


class WriteBehindManager:
    """Per-file pending-write buffers plus the background flusher."""

    def __init__(self, fs: "PPFS"):
        self.fs = fs
        self.env = fs.env
        self.pending: dict[int, ExtentSet] = {}  # file_id -> extents
        self._files: dict[int, PFSFile] = {}
        self._timer_armed = False
        self._inflight: set[object] = set()
        self._idle_event: Event | None = None
        # A fatal flush failure under fault injection, parked here and
        # raised at the next drain.
        self._fatal: BaseException | None = None
        #: Span recorder handle (planted by SpanRecorder.attach).
        self.spans = None
        # Statistics for the ablation bench.
        self.writes_submitted = 0
        self.bytes_submitted = 0
        self.transfers_issued = 0
        self.bytes_flushed = 0

    def backlog_bytes(self) -> int:
        """Bytes buffered but not yet handed to the flusher (the quantity
        the telemetry sampler tracks as ``writebehind.backlog_bytes``)."""
        return sum(extents.total_bytes for extents in self.pending.values())

    @property
    def inflight_batches(self) -> int:
        """Flush batches issued but not yet durable."""
        return len(self._inflight)

    @property
    def idle(self) -> bool:
        """No buffered or in-flight data anywhere (fluid-mode precondition:
        a non-idle write-behind pipeline could reorder against closed-form
        phases, so the servicer declines while anything is pending)."""
        return not self._inflight and not self.backlog_bytes()

    @property
    def aggregation_factor(self) -> float:
        """Application writes per physical transfer (>1 = aggregation won)."""
        return (
            self.writes_submitted / self.transfers_issued
            if self.transfers_issued
            else 0.0
        )

    # -- submission ------------------------------------------------------------
    def submit(self, f: PFSFile, offset: int, nbytes: int) -> None:
        """Buffer one application write (returns immediately)."""
        self.writes_submitted += 1
        self.bytes_submitted += nbytes
        self._files[f.file_id] = f
        extents = self.pending.get(f.file_id)
        if extents is None:
            extents = self.pending[f.file_id] = ExtentSet()
        extents.add(offset, nbytes)
        pol = self.fs.policies
        if pol.aggregation:
            # O(1) early-out: nothing can drain until some run has grown
            # to the aggregation threshold.
            if extents.max_run_bytes >= pol.aggregate_min_bytes:
                self._start_runs(f, extents.pop_file_runs(pol.aggregate_min_bytes))
        else:
            # Without aggregation, drain each write as its own transfer.
            self._start_runs(f, extents.pop_all())
        if extents and not self._timer_armed:
            self._timer_armed = True
            self.env.process(self._interval_flush(), name="ppfs.flusher")

    # -- flushing ---------------------------------------------------------------
    def _start_runs(self, f: PFSFile, runs: list[tuple[int, int]]) -> None:
        """Launch one file's drainable runs as background transfers.

        Every chunk of every run arrives at the I/O nodes now; the runs
        decompose in one vectorized pass and one countdown tracks the
        batch until it is durable.  Fault-free, each node's share (stable-
        sorted, so in arrival order) is one ``submit_batch`` cohort and the
        countdown runs over nodes.  With ``fs.retry`` set, each chunk goes
        through the retry attempt loop in run order; a fatal failure is
        parked in ``_fatal`` and raised at the next drain.  Each run
        counts as one logical transfer for the aggregation statistics.
        """
        if not runs:
            return
        fs = self.fs
        env = self.env
        ionodes = fs.machine.ionodes
        per_byte = fs.costs.write_chunk_extra_per_byte_s
        self.transfers_issued += len(runs)
        starts = np.fromiter((r[0] for r in runs), np.int64, len(runs))
        run_sizes = np.fromiter((r[1] - r[0] for r in runs), np.int64, len(runs))
        total = int(run_sizes.sum())
        self.bytes_flushed += total
        _, chunks = f.layout.decompose_batch(starts, run_sizes)
        spans = self.spans
        fsid = -1
        if spans is not None:
            # Root span: the flush runs off every application thread's
            # critical path, so it cannot nest under any op span.
            fsid = spans.store.begin(
                "wb.flush", -1, env.now, nbytes=total, aux=float(len(runs))
            )
        token = object()
        self._inflight.add(token)
        remaining = [len(chunks)]

        def _done(_ev=None):
            remaining[0] -= 1
            if not remaining[0]:
                if fsid >= 0:
                    spans.store.finish(fsid, env.now)
                self._inflight.discard(token)
                if not self._inflight and self._idle_event is not None:
                    self._idle_event.succeed()
                    self._idle_event = None

        retry = fs.retry
        if retry is not None:

            def _send(chunk, finish):
                ionodes[chunk.ionode].submit(
                    chunk.disk_offset, chunk.nbytes, True, chunk.nbytes * per_byte, fsid
                ).callbacks.append(finish)

            def _fatal(exc):
                if self._fatal is None:
                    self._fatal = exc
                _done()

            for row in chunks.tolist():
                chunk = Chunk(*row)
                retry.run(chunk, _send, chunk.ionode, f.file_id, fsid, _done, _fatal,
                          "flush chunk")
            return
        chunks = chunks[np.argsort(chunks["ionode"], kind="stable")]
        node_ids = chunks["ionode"]
        bounds = [0, *(np.flatnonzero(node_ids[1:] != node_ids[:-1]) + 1), len(chunks)]
        remaining[0] = len(bounds) - 1
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            group = chunks[b0:b1]
            sizes = group["nbytes"]
            ionodes[int(node_ids[b0])].submit_batch(
                group["disk_offset"], sizes, True, sizes * per_byte, fsid
            ).callbacks.append(_done)

    def _interval_flush(self):
        """Periodic flush.

        Without aggregation everything pending drains.  With aggregation,
        only runs that reached ``aggregate_min_bytes`` drain — smaller
        fragments keep accumulating (they coalesce with later writes into
        disk-efficient transfers) and are forced out at close/drain time.
        """
        yield self.env.timeout(self.fs.policies.flush_interval_s)
        self._timer_armed = False
        pol = self.fs.policies
        for file_id, extents in list(self.pending.items()):
            if not extents:
                continue
            if pol.aggregation:
                if extents.max_run_bytes < pol.aggregate_min_bytes:
                    continue
                runs = extents.pop_file_runs(pol.aggregate_min_bytes)
            else:
                runs = extents.pop_all()
            self._start_runs(self._files[file_id], runs)
        # Remaining fragments wait for more writes (which re-arm the
        # timer) or for the forced drain at close — never re-arm here, or
        # an idle simulation would spin on timer events forever.

    # -- draining ----------------------------------------------------------------
    def flush_file(self, f: PFSFile) -> None:
        """Push a file's pending extents to the flusher immediately."""
        extents = self.pending.get(f.file_id)
        if extents:
            self._start_runs(f, extents.pop_all())

    def drain_file(self, f: PFSFile):
        """Process generator: flush + wait until the file's data is durable.

        Waits for *all* in-flight transfers (coarse but safe), so a close
        never returns with the closed file's bytes still in memory.
        """
        self.flush_file(f)
        yield from self.drain_all()

    def drain_all(self):
        """Process generator: flush everything and wait for quiescence."""
        for file_id, extents in list(self.pending.items()):
            if extents:
                self._start_runs(self._files[file_id], extents.pop_all())
        while self._inflight:
            if self._idle_event is None:
                self._idle_event = Event(self.env)
            yield self._idle_event
        if self._fatal is not None:
            exc, self._fatal = self._fatal, None
            raise exc
