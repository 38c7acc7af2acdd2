"""Host-side burst-buffer tier: a bounded append log with an async drainer.

Checkpointing codes emit short, huge, fully-synchronized write bursts —
the one traffic shape the RAID-3 back end handles worst.  The classic
remedy (ParaLog / iFast lineage) is a fast host-side log: checkpoint
writes *append* to the log at memory-class bandwidth and the application
resumes computing while a background drainer destages the data to the
striped RAID arrays.

The model here is one shared log per machine:

* **append service** — appends serialize through a capacity-one log
  device and pay ``append_latency_s + nbytes / append_bandwidth_bps``;
* **bounded capacity** — an append that does not fit stalls until the
  drainer frees space (the backpressure that caps how far the
  application can outrun the disks), accumulating ``stall_s``;
* **async drainer** — a callback-chained loop (no Process per chunk)
  that replays logged extents through the file system's ``_fanout`` in
  ``drain_chunk_bytes`` pieces, oldest first.  The fan-out consults
  ``fs.retry``, so retry/failover (:mod:`repro.pfs.retry`) applies to
  destage traffic exactly as it does to foreground writes;
* **write-through bypass** — ``mode="writethrough"`` (or an injected
  drain failure that leaves the log full) forwards writes straight to
  the RAID fan-out, so the tier can be A/B'd and degrades gracefully;
* **read consistency** — a read of an extent with undrained bytes waits
  on a per-file barrier until the drainer has made it durable (restart
  reads pay the drain lag, as they would on real hardware).

Everything is deterministic: FIFO extent queue, FIFO space waiters, no
RNG draws.  A machine without a burst buffer pays exactly one attribute
check per data transfer (see :meth:`repro.pfs.filesystem.PFS._transfer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.core import Environment, Event, Timeout
from ..sim.resources import Resource
from ..util.units import MB
from ..util.validation import check_nonneg, check_positive

__all__ = ["BurstBufferParams", "BurstBuffer"]


@dataclass(frozen=True)
class BurstBufferParams:
    """Burst-buffer log configuration.

    Defaults model an aggregated host-memory log in the ParaLog spirit:
    two orders of magnitude faster than the RAID back end, but bounded —
    a 256 MB log absorbs a few per-node checkpoint states before
    backpressure sets in.
    """

    #: Log capacity; appends beyond it stall until the drainer frees space.
    capacity_bytes: int = 256 * MB
    #: Append service bandwidth (shared by all writers).
    append_bandwidth_bps: float = 400_000_000.0
    #: Fixed per-append latency (log metadata + DMA setup).
    append_latency_s: float = 0.0001
    #: Destage granularity: the drainer replays extents in these pieces.
    drain_chunk_bytes: int = MB
    #: Mesh position the drainer issues destage traffic from.
    drain_node: int = 0
    #: ``buffered`` (the log absorbs writes) or ``writethrough`` (bypass:
    #: every write goes straight to the RAID fan-out).
    mode: str = "buffered"

    def __post_init__(self) -> None:
        check_positive(self.capacity_bytes, "capacity_bytes")
        check_positive(self.append_bandwidth_bps, "append_bandwidth_bps")
        check_nonneg(self.append_latency_s, "append_latency_s")
        check_positive(self.drain_chunk_bytes, "drain_chunk_bytes")
        if self.drain_node < 0:
            raise ValueError(f"drain_node must be >= 0, got {self.drain_node}")
        if self.mode not in ("buffered", "writethrough"):
            raise ValueError(
                f"mode must be buffered/writethrough, got {self.mode!r}"
            )


class _Extent:
    """One logged append, FIFO-drained in chunks."""

    __slots__ = ("f", "offset", "nbytes", "drained", "appended_at")

    def __init__(self, f, offset: int, nbytes: int, appended_at: float):
        self.f = f
        self.offset = offset
        self.nbytes = nbytes
        self.drained = 0
        self.appended_at = appended_at


class BurstBuffer:
    """The shared host-side log (see module docstring).

    Lifecycle: constructed with the machine, bound to the file system by
    :meth:`repro.pfs.filesystem.PFS.__init__` (via :meth:`bind`), driven
    by :meth:`absorb` / :meth:`read_barrier` from the data path.
    """

    def __init__(self, env: Environment, params: Optional[BurstBufferParams] = None):
        self.env = env
        self.params = params or BurstBufferParams()
        self._fs = None
        #: Span recorder handle (planted by SpanRecorder.attach).
        self.spans = None
        self._log = Resource(env, capacity=1)
        self._queue: list[_Extent] = []
        self._free = self.params.capacity_bytes
        self._draining = False
        self._halted = False
        # At most one absorber waits for space at a time (the log device
        # serializes them), so a single slot suffices.
        self._space_event: Optional[Event] = None
        self._pending_by_file: dict[int, int] = {}
        self._file_waiters: dict[int, list[Event]] = {}
        # -- statistics ------------------------------------------------------
        self.appends = 0
        self.bytes_absorbed = 0
        self.bytes_drained = 0
        self.stalls = 0
        self.stall_s = 0.0
        self.max_occupancy_bytes = 0
        self.fallback_writes = 0
        self.fallback_bytes = 0
        self.drain_failures = 0
        self.drain_errors = 0
        self.first_append_s: Optional[float] = None
        self.last_append_s = 0.0
        self.last_drain_s = 0.0
        self.max_drain_lag_s = 0.0

    # -- wiring ---------------------------------------------------------------
    def bind(self, fs) -> "BurstBuffer":
        """Attach the file system whose fan-out carries destage traffic."""
        self._fs = fs
        return self

    @property
    def occupancy_bytes(self) -> int:
        """Bytes currently held in the log."""
        return self.params.capacity_bytes - self._free

    @property
    def halted(self) -> bool:
        """True while an injected drain failure stops destaging."""
        return self._halted

    def oldest_age_s(self) -> float:
        """Age of the oldest undrained extent (the drain-lag gauge)."""
        if not self._queue:
            return 0.0
        return self.env.now - self._queue[0].appended_at

    def stats_dict(self) -> dict:
        """JSON-safe statistics (campaign metrics, CLI summaries)."""
        return {
            "appends": self.appends,
            "bytes_absorbed": self.bytes_absorbed,
            "bytes_drained": self.bytes_drained,
            "stalls": self.stalls,
            "stall_s": round(self.stall_s, 9),
            "max_occupancy_bytes": self.max_occupancy_bytes,
            "fallback_writes": self.fallback_writes,
            "fallback_bytes": self.fallback_bytes,
            "drain_failures": self.drain_failures,
            "drain_errors": self.drain_errors,
            "drain_lag_s": round(self.max_drain_lag_s, 9),
            "drain_tail_s": round(max(0.0, self.last_drain_s - self.last_append_s), 9),
            "drain_overlap": round(self.drain_overlap(), 9),
        }

    def drain_overlap(self) -> float:
        """Fraction of the drain window overlapped with live appends.

        1.0 means destaging finished the moment the last append landed
        (fully hidden); 0.0 means all draining happened after the
        application stopped writing (nothing hidden).
        """
        if self.first_append_s is None or self.last_drain_s == 0.0:
            return 0.0
        window = self.last_drain_s - self.first_append_s
        if window <= 0.0:
            return 1.0
        tail = max(0.0, self.last_drain_s - self.last_append_s)
        return max(0.0, 1.0 - tail / window)

    # -- write path ------------------------------------------------------------
    def absorb(self, node: int, f, offset: int, nbytes: int):
        """Process generator: log one write (the data path calls this).

        Appends that fit absorb at log speed; appends that do not fit
        stall for drained space.  Bypass mode, over-capacity requests,
        and a halted drainer with a full log all fall back to a direct
        RAID fan-out — the application never deadlocks on its own log.
        """
        env = self.env
        p = self.params
        if (
            p.mode == "writethrough"
            or nbytes > p.capacity_bytes
            or (self._halted and nbytes > self._free)
        ):
            self.fallback_writes += 1
            self.fallback_bytes += nbytes
            yield self._fs._fanout(node, f, offset, nbytes, True)
            return nbytes
        req = self._log.request()
        yield req
        fallback = False
        try:
            if nbytes > self._free:
                self.stalls += 1
                stalled_at = env.now
                while nbytes > self._free and not self._halted:
                    ev = Event(env)
                    self._space_event = ev
                    yield ev
                self.stall_s += env.now - stalled_at
                if nbytes > self._free:  # drainer died while we waited
                    fallback = True
            if not fallback:
                self._free -= nbytes
                yield Timeout(
                    env, p.append_latency_s + nbytes / p.append_bandwidth_bps
                )
        finally:
            self._log.release(req)
        if fallback:
            self.fallback_writes += 1
            self.fallback_bytes += nbytes
            yield self._fs._fanout(node, f, offset, nbytes, True)
            return nbytes
        self.appends += 1
        self.bytes_absorbed += nbytes
        if self.first_append_s is None:
            self.first_append_s = env.now
        self.last_append_s = env.now
        occupancy = self.occupancy_bytes
        if occupancy > self.max_occupancy_bytes:
            self.max_occupancy_bytes = occupancy
        self._queue.append(_Extent(f, offset, nbytes, env.now))
        fid = f.file_id
        self._pending_by_file[fid] = self._pending_by_file.get(fid, 0) + nbytes
        self._kick()
        return nbytes

    # -- read path -------------------------------------------------------------
    def read_barrier(self, file_id: int) -> Optional[Event]:
        """Event that fires once the file has no undrained bytes.

        Returns None when the file is already durable, so the hot path
        allocates nothing in the common case.
        """
        if not self._pending_by_file.get(file_id):
            return None
        ev = Event(self.env)
        self._file_waiters.setdefault(file_id, []).append(ev)
        return ev

    # -- fault hooks (repro.faults) ---------------------------------------------
    def drain_fail(self) -> None:
        """Injected fault: the drainer halts (the log stops emptying)."""
        if self._halted:
            return
        self._halted = True
        self.drain_failures += 1
        # Wake a stalled appender so it can fall back to direct writes.
        ev = self._space_event
        if ev is not None:
            self._space_event = None
            ev.succeed()

    def drain_resume(self) -> None:
        """Injected recovery: destaging resumes where it left off."""
        if not self._halted:
            return
        self._halted = False
        self._kick()

    # -- drainer ----------------------------------------------------------------
    def _kick(self) -> None:
        if not self._draining and not self._halted and self._queue:
            self._draining = True
            self._drain_next()

    def _drain_next(self) -> None:
        if self._halted or not self._queue:
            self._draining = False
            return
        ext = self._queue[0]
        chunk = min(self.params.drain_chunk_bytes, ext.nbytes - ext.drained)
        spans = self.spans
        if spans is not None:
            # Root span per destage chunk: the drainer runs off-thread, so
            # its fan-out must not inherit whatever op the drain node's
            # compute process happens to be running.
            dsid = spans.store.begin(
                "bb.drain", self.params.drain_node, self.env.now, nbytes=chunk
            )
            spans.fanout_parent = dsid
        else:
            dsid = -1
        ev = self._fs._fanout(
            self.params.drain_node, ext.f, ext.offset + ext.drained, chunk, True
        )
        ev.callbacks.append(
            lambda done, ext=ext, chunk=chunk, dsid=dsid: self._chunk_done(
                done, ext, chunk, dsid
            )
        )

    def _chunk_done(self, ev: Event, ext: _Extent, chunk: int, dsid: int = -1) -> None:
        if dsid >= 0:
            self.spans.store.finish(dsid, self.env.now)
        if not ev._ok:
            # Fatal destage error (e.g. retry budget exhausted during an
            # outage): drop the extent's remainder so the log never wedges;
            # the freed bytes were already durable-or-lost at the back end.
            self.drain_errors += 1
            chunk = ext.nbytes - ext.drained
        ext.drained += chunk
        self._release(ext, chunk)
        if ext.drained >= ext.nbytes:
            self._queue.pop(0)
            lag = self.env.now - ext.appended_at
            if lag > self.max_drain_lag_s:
                self.max_drain_lag_s = lag
        self._drain_next()

    def _release(self, ext: _Extent, nbytes: int) -> None:
        self.bytes_drained += nbytes
        self.last_drain_s = self.env.now
        self._free += nbytes
        ev = self._space_event
        if ev is not None:
            self._space_event = None
            ev.succeed()
        fid = ext.f.file_id
        left = self._pending_by_file.get(fid, 0) - nbytes
        if left > 0:
            self._pending_by_file[fid] = left
        else:
            self._pending_by_file.pop(fid, None)
            waiters = self._file_waiters.pop(fid, None)
            if waiters:
                for waiter in waiters:
                    waiter.succeed()
