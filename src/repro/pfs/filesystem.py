"""The Intel PFS model: open/close/read/write/seek/lsize/flush + async reads.

Every operation is a simulation-process generator: application skeletons
``yield from`` them, and the elapsed simulated time *is* the operation
duration Pablo-style instrumentation records.

The model charges three kinds of cost:

1. **Client software** — fixed per-op overhead, per-byte copy cost (which
   bounds a single client at ~10 MB/s, RENDER's measured ceiling), async
   issue cost, and stdio-style read/write buffering of small requests.
2. **Metadata serialization** — opens/closes/lsize visit a single metadata
   server resource; creates are expensive (stripe allocation), which is
   what makes HTF's 128 simultaneous creates dominate its integral phase.
3. **Data path** — requests decompose into per-I/O-node chunks
   (:mod:`repro.pfs.striping`), each paying mesh transfer plus queued
   RAID-3 service.  Shared-file atomic writes and shared-file seeks
   serialize on a per-file token, reproducing ESCAT's seek/write costs.

Mode semantics (:mod:`repro.pfs.modes`) are enforced: shared pointers,
M_SYNC node-order turns, M_RECORD fixed records with node-interleaved
default placement, M_GLOBAL collective reads, M_ASYNC's missing atomicity.

Every application-level op is also its own Pablo capture point (§3.1):
it stamps its entry time, yields the capture perturbation before its own
work, and hands one ``(t0, node, op, file_id, offset, nbytes, duration)``
row to the file system's sink at its single exit
(:mod:`repro.pablo.capture` installs the sink; uncaptured, rows drop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..pablo.events import Op
from ..sim.core import Environment, Event, Timeout
from ..sim.resources import Resource
from ..spans.record import (
    LEAF_BB_ABSORB,
    LEAF_MESH_BCAST,
    LEAF_SYNC_WAIT,
    LEAF_TOKEN_ORDER,
    LEAF_TOKEN_SEEK,
    LEAF_TOKEN_WRITE,
)
from ..util.units import MB
from .costs import CostModel
from .errors import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    ModeError,
    PFSError,
)
from .fanout import Join
from .file import PFSFile
from .modes import AccessMode
from .striping import StripeLayout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..machine.paragon import Paragon

__all__ = ["PFS", "AreadHandle", "SEEK_SET", "SEEK_CUR", "SEEK_END"]

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

#: Physical region reserved per file on each I/O node by the simple
#: allocator; bases only influence seek distances, so overlap-free
#: spacing is all that matters.
_FILE_REGION_BYTES = 128 * MB


def _drop(t0, node, op, file_id, offset, nbytes, duration) -> None:
    """The capture sink of an uncaptured file system: the row goes nowhere."""


def _no_perturb() -> tuple:
    """Zero-overhead capture delay: ``yield from`` an empty tuple costs one
    call and no generator allocation."""
    return ()


class AreadHandle:
    """Completion handle for an asynchronous read (NX ``iread`` analog)."""

    __slots__ = ("event", "nbytes", "file_id", "offset", "issued_at")

    def __init__(self, event: Event, nbytes: int, file_id: int, offset: int, issued_at: float):
        self.event = event
        self.nbytes = nbytes
        self.file_id = file_id
        self.offset = offset
        self.issued_at = issued_at

    @property
    def complete(self) -> bool:
        return self.event.triggered


@dataclass
class _OpenFile:
    """Per-(node, fd) state."""

    file: PFSFile
    # Per-descriptor file pointer (shared-pointer modes ignore it).
    pos: int = 0
    # Client read buffer: buffered logical extent [start, end).
    rbuf_start: int = -1
    rbuf_end: int = -1
    # Client write buffer: pending extent [start, start+length).
    wbuf_start: int = -1
    wbuf_len: int = 0
    # M_RECORD slot counters.
    records_read: int = 0
    records_written: int = 0
    # Actual file offset of the most recent read/write (differs from the
    # pre-op pointer under slot/shared-pointer modes); -1 before any op.
    last_op_offset: int = -1
    # Pending async reads (drained at close).
    pending: list[AreadHandle] = field(default_factory=list)


class PFS:
    """Parallel file system instance bound to a :class:`Paragon` machine.

    Parameters
    ----------
    machine:
        The machine whose I/O nodes and mesh carry the data.
    costs:
        Software cost model; defaults to the calibrated constants.
    track_content:
        Store real bytes per file (for data-integrity tests).  Large runs
        leave this off and track sizes only.
    """

    #: Per-chunk routing rule ``(f, chunk, is_write, parent) -> (hit_s,
    #: fill)`` that :meth:`_send` consults; None = every chunk serves
    #: from disk (the PPFS server cache binds one).
    _route = None
    #: Write-behind manager whose queued writes :meth:`close` drains
    #: first; None = writes reach the data path before they complete.
    writeback = None
    #: Tape recall ``(path) -> generator`` that :meth:`open` runs first,
    #: inside the traced open (an HSM binds one); None = all on disk.
    recall = None
    #: Per-op capture perturbation (see :meth:`attach_capture`).
    capture_overhead_s = 0.0

    def __init__(
        self,
        machine: Paragon,
        costs: Optional[CostModel] = None,
        track_content: bool = False,
    ):
        self.machine = machine
        self.env: Environment = machine.env
        self.costs = costs or CostModel()
        self.track_content = track_content
        #: Telemetry live counters (repro.telemetry); None = disabled, and
        #: every hook below then costs one attribute check per operation.
        self.telemetry = None
        #: Span recorder (repro.spans); None = off, and the data path then
        #: costs one attribute check per request.
        self.spans = None
        #: Retry/failover (repro.pfs.retry); None = fault-free, and the
        #: data path then costs one attribute check per request.
        self.retry = None
        #: Fluid-fidelity servicer (repro.sim.fluid); None = event mode,
        #: and applications then run every phase discretely.
        self.fluid = None
        #: The Pablo capture sink, the open-path name table and the
        #: perturbation delay (see :meth:`attach_capture`).
        self._emit = _drop
        self._file_names: dict[int, str] = {}
        self._perturb = _no_perturb
        #: Burst-buffer tier, when the machine has one; None = absent, and
        #: the data path then costs one attribute check per transfer.
        self._bb = getattr(machine, "burstbuffer", None)
        if self._bb is not None:
            self._bb.bind(self)
        self._meta_server = Resource(self.env, capacity=1)
        self._copy_engine: dict[int, Resource] = {}
        self._files: dict[str, PFSFile] = {}
        self._fd_tables: dict[int, dict[int, _OpenFile]] = {}
        self._next_fd: dict[int, int] = {}
        self._next_file_id = 3  # Unix-style: 0-2 are stdio
        self._next_base = 0
        # I/O-node mesh positions are fixed for the machine's lifetime;
        # precompute so the per-chunk fan-out does a list index, not
        # arithmetic over three attribute chains.
        mesh_size = machine.config.mesh.size
        stride = max(1, mesh_size // len(machine.ionodes))
        self._io_mesh_pos = [
            (i * stride) % mesh_size for i in range(len(machine.ionodes))
        ]

    # ---------------------------------------------------------------- capture
    def attach_capture(self, emit, file_names: dict, overhead_s: float = 0.0) -> None:
        """Make ``emit`` this file system's one Pablo sink.

        Every traced op calls ``emit(t0, node, op, file_id, offset,
        nbytes, duration)`` once, at its exit, in the kernel step it
        completes in (fluid phases call it from their solve).  Opens also
        name their file in ``file_names``.  Each op first yields
        ``overhead_s``, the capture perturbation, before its own work.
        A later call replaces the sink: one live capture per file system.
        """
        self._emit = emit
        self._file_names = file_names
        self.capture_overhead_s = overhead_s
        self._perturb = self._capture_delay if overhead_s else _no_perturb

    def _capture_delay(self):
        yield self.env.timeout(self.capture_overhead_s)

    # ------------------------------------------------------------------ utils
    def _copier(self, node: int) -> Resource:
        """Per-node client copy engine (serializes async completions)."""
        res = self._copy_engine.get(node)
        if res is None:
            res = Resource(self.env, capacity=1)
            self._copy_engine[node] = res
        return res

    def _wait(self, leaf: int, node: int, event: Event):
        """Wait for ``event`` (a token grant or a node-order turn),
        staging the wait as a ``leaf`` span when spans are on."""
        spans = self.spans
        if spans is None:
            yield event
            return
        t0 = self.env.now
        yield event
        spans.leaf_raw.append((leaf, node, t0, self.env.now, 0.0))

    def _entry(self, node: int, fd: int) -> _OpenFile:
        try:
            return self._fd_tables[node][fd]
        except KeyError:
            raise BadFileDescriptor(f"node {node} has no open fd {fd}") from None

    def fluid_ok(self, f: PFSFile) -> bool:
        """May operations on ``f`` be priced in closed form?

        The base data path qualifies except where the burst-buffer tier
        intercepts transfers (its drain pipeline is stateful).  Subclasses
        that interpose caches or write-behind must override and decline
        whenever that state could change outcomes (see
        :mod:`repro.sim.fluid`).
        """
        return not (self._bb is not None and f.burst_tier)

    def lookup(self, path: str) -> Optional[PFSFile]:
        """The file object for ``path`` if it exists."""
        return self._files.get(path)

    def exists(self, path: str) -> bool:
        return path in self._files

    def ensure(self, path: str, file_id: Optional[int] = None, size: int = 0) -> PFSFile:
        """Create ``path`` administratively (no simulated cost).

        Models files that pre-exist a run: input datasets staged before
        the job, or scratch files left by a previous execution (ESCAT's
        quadrature staging files).  ``size`` presets the logical size.
        """
        if path in self._files:
            f = self._files[path]
            f.size = max(f.size, size)
            return f
        f = self._new_file(path, file_id, AccessMode.M_UNIX)
        f.size = size
        return f

    def _new_file(self, path: str, file_id: Optional[int], mode: AccessMode,
                  record_size: Optional[int] = None) -> PFSFile:
        """Register ``path`` with its stripe layout and file region; the
        next free id unless ``file_id`` is given."""
        if file_id is None:
            file_id = self._next_file_id
            self._next_file_id += 1
        else:
            self._next_file_id = max(self._next_file_id, file_id + 1)
        layout = StripeLayout(
            n_ionodes=len(self.machine.ionodes),
            first_ionode=file_id % len(self.machine.ionodes),
            base=self._next_base,
        )
        self._next_base += _FILE_REGION_BYTES
        f = PFSFile(
            self.env, path, file_id, layout,
            mode=mode, record_size=record_size, track_content=self.track_content,
        )
        self._files[path] = f
        return f

    def mark_burst_tier(self, path: str, enabled: bool = True) -> PFSFile:
        """Route ``path``'s writes through the burst-buffer log.

        A client-side placement hint (no simulated cost), analogous to
        staging a file on the fast tier.  Harmless when the machine has
        no burst buffer — the data path checks the tier flag only when a
        buffer exists.
        """
        f = self._files.get(path)
        if f is None:
            raise FileNotFound(path)
        f.burst_tier = enabled
        return f

    def setiomode(
        self,
        node: int,
        fd: int,
        mode: AccessMode,
        record_size: Optional[int] = None,
        parties: Optional[int] = None,
    ):
        """Change an open file's access mode (Intel ``setiomode``).

        A cheap collective metadata operation; resets the shared pointer
        and the caller's record counters.
        """
        from .modes import semantics as _semantics

        entry = self._entry(node, fd)
        f = entry.file
        if entry.wbuf_len:
            yield from self._flush_write_buffer(node, entry)
        yield self.env.timeout(self.costs.client_op_overhead_s)
        new_sem = _semantics(mode)
        if new_sem.fixed_records:
            if record_size is None and f.record_size is None:
                raise ModeError(f"{mode} requires a record_size")
        f.mode = mode
        f.sem = new_sem
        if record_size is not None:
            f.record_size = record_size
        if parties is not None:
            f.declared_parties = parties
        f.shared_pointer = 0
        f.sync_parties = None
        f.record_parties = None
        entry.records_read = 0
        entry.records_written = 0
        entry.rbuf_start = entry.rbuf_end = -1

    def tell(self, node: int, fd: int) -> int:
        """Current pointer position (no cost; client-side state)."""
        entry = self._entry(node, fd)
        return entry.file.tell(entry)

    def file_of(self, node: int, fd: int) -> PFSFile:
        """The file behind a descriptor."""
        return self._entry(node, fd).file

    def last_op_offset(self, node: int, fd: int) -> int:
        """Actual file offset of the descriptor's most recent data
        operation (slot/shared-pointer modes position ops away from the
        caller's pre-op pointer); -1 before any data op."""
        return self._entry(node, fd).last_op_offset

    # ------------------------------------------------------------- open/close
    def open(
        self,
        node: int,
        path: str,
        mode: AccessMode = AccessMode.M_UNIX,
        create: bool = False,
        exclusive: bool = False,
        record_size: Optional[int] = None,
        file_id: Optional[int] = None,
        cold: bool = False,
        parties: Optional[int] = None,
    ):
        """Open (or create) ``path``; returns the new fd.

        ``cold`` adds the one-time cold-start cost (server paging /
        staging effects) observed on first-program opens.  ``parties``
        declares how many nodes participate in collective/ordered modes
        (M_SYNC/M_GLOBAL) — the ``setiomode`` partition size; without it
        the opener count at the first ordered operation is used.
        """
        began = self.env.now
        yield from self._perturb()
        if self.recall is not None:
            yield from self.recall(path)
        existed = path in self._files
        if not existed and not create:
            raise FileNotFound(path)
        if existed and create and exclusive:
            raise FileExists(path)
        f = self._files.get(path)
        if f is not None and f.mode is not mode and f.openers:
            raise ModeError(
                f"{path!r} already open in {f.mode}; cannot also open in {mode}"
            )

        # Register the file synchronously so concurrent creators share one
        # object (only the first arrival pays the create cost).
        if f is None:
            f = self._new_file(path, file_id, mode, record_size)
        elif record_size is not None and f.record_size not in (None, record_size):
            raise ModeError(
                f"{path!r} opened with record_size={f.record_size}, got {record_size}"
            )
        elif not f.openers and f.mode is not mode:
            # First opener of an idle file sets its mode (setiomode-at-open).
            from .modes import semantics as _semantics

            new_sem = _semantics(mode)
            if new_sem.fixed_records and record_size is None and f.record_size is None:
                raise ModeError(f"{mode} requires a record_size")
            f.mode = mode
            f.sem = new_sem
            if record_size is not None:
                f.record_size = record_size

        # Metadata server visit.
        service = self.costs.open_service_s if existed else self.costs.create_service_s
        if cold:
            service += self.costs.cold_open_s
        req = self._meta_server.request()
        yield req
        try:
            yield self.env.timeout(service)
        finally:
            self._meta_server.release(req)
        if parties is not None:
            if parties < 1:
                raise PFSError(f"parties must be >= 1, got {parties}")
            if f.declared_parties not in (None, parties):
                raise ModeError(
                    f"{path!r} opened with parties={f.declared_parties}, got {parties}"
                )
            f.declared_parties = parties
        f.openers.add(node)
        table = self._fd_tables.setdefault(node, {})
        fd = self._next_fd.get(node, 3)
        self._next_fd[node] = fd + 1
        table[fd] = _OpenFile(file=f)
        telem = self.telemetry
        if telem is not None:
            telem.opens += 1
        self._file_names.setdefault(f.file_id, path)
        self._emit(began, node, Op.OPEN, f.file_id, 0, 0, self.env.now - began)
        return fd

    def close(self, node: int, fd: int):
        """Drain write-behind, flush buffered writes, drain async reads,
        release the fd."""
        entry = self._entry(node, fd)
        f = entry.file
        began = self.env.now
        yield from self._perturb()
        if self.writeback is not None:
            yield from self.writeback.drain_file(f)
        if entry.wbuf_len:
            yield from self._flush_write_buffer(node, entry)
        for handle in entry.pending:
            if not handle.complete:
                yield handle.event
        entry.pending.clear()
        req = self._meta_server.request()
        yield req
        try:
            yield self.env.timeout(self.costs.close_service_s)
        finally:
            self._meta_server.release(req)
        del self._fd_tables[node][fd]
        f.openers.discard(node)
        f.dirty_nodes.discard(node)
        self._emit(began, node, Op.CLOSE, f.file_id, 0, 0, self.env.now - began)

    # -------------------------------------------------------------- data path
    def _chunk_extra(self, nbytes: int, is_write: bool) -> float:
        """Server-path software cost per chunk (see CostModel)."""
        if is_write:
            return nbytes * self.costs.write_chunk_extra_per_byte_s
        return self.costs.read_chunk_extra_s

    def _fanout(self, node: int, f: PFSFile, offset: int, nbytes: int, is_write: bool) -> Event:
        """Start the striped per-I/O-node chunk transfers of one request;
        the returned event fires when the last chunk completes.

        :meth:`_send` starts every chunk as one chunk of a shared
        :class:`~repro.pfs.fanout.Join`.  Eager FIFO nodes fold the chunk
        completions into one kernel event for the whole request; scalar
        queues count each chunk down.  All hops in both forms are
        zero-delay, so completion times are unchanged.  With ``retry``
        set, each chunk instead goes through the retry attempt loop (one
        attempt is :meth:`_send` on that chunk alone) and a fatal failure
        fails the returned event.
        """
        chunks = f.layout.decompose(offset, nbytes)
        join = Join(self.env, len(chunks))
        # Causal span the chunks nest under; -1 with spans off.
        parent = -1 if self.spans is None else self.spans.take_fanout_parent(node)
        retry = self.retry
        if retry is None:
            self._send(node, f, is_write, parent, chunks, join=join)
            return join.done

        def send(chunk, finish):
            self._send(node, f, is_write, parent, [chunk], finish=finish)

        for chunk in chunks:
            retry.run(chunk, send, node, f.file_id, parent, join.chunk_done, join.chunk_failed)
        return join.done

    def _send(self, node: int, f: PFSFile, is_write: bool, parent: float, chunks,
              join: Optional[Join] = None,
              finish: Optional[Callable[[Event], None]] = None) -> None:
        """Give each chunk its mesh hop from ``node`` and submit it on
        arrival, as one chunk of ``join`` or with ``finish`` hung on its
        service event.  ``_route`` may make a chunk a control op of
        ``hit_s`` or hang ``fill`` on its event ahead of either."""
        env = self.env
        mesh = self.machine.mesh
        ionodes = self.machine.ionodes
        io_pos = self._io_mesh_pos
        spans = self.spans
        if spans is not None:
            mesh_ext = spans.mesh_raw.append
            now = env.now
        route = self._route
        hit_s = fill = None
        for chunk in chunks:
            ion = ionodes[chunk.ionode]
            if route is not None:
                hit_s, fill = route(f, chunk, is_write, parent)
            extra = self._chunk_extra(chunk.nbytes, is_write)
            delay = mesh.message_time(node, io_pos[chunk.ionode], chunk.nbytes)
            if spans is not None:
                mesh_ext((parent, node, now, now + delay, chunk.nbytes))

            def _arrived(_ev, ion=ion, chunk=chunk, extra=extra, hit_s=hit_s, fill=fill):
                if hit_s is not None:
                    ev = ion.submit_control(hit_s, parent, join)
                elif fill is None:
                    ev = ion.submit(chunk.disk_offset, chunk.nbytes, is_write, extra, parent, join)
                else:
                    ev = ion.submit(chunk.disk_offset, chunk.nbytes, is_write, extra, parent)
                    ev.callbacks.append(fill)
                    if join is not None:
                        join.add(ev)
                if finish is not None:
                    ev.callbacks.append(finish)

            Timeout(env, delay).callbacks.append(_arrived)

    def _transfer(self, node: int, f: PFSFile, offset: int, nbytes: int, is_write: bool):
        """Move ``nbytes`` between the client and the striped I/O nodes.

        Burst-tier files on a machine with a burst buffer divert: writes
        absorb into the host-side log (the drainer destages them later),
        reads first wait for the file's logged bytes to become durable.
        """
        if nbytes <= 0:
            return 0
        bb = self._bb
        if bb is not None and f.burst_tier:
            spans = self.spans
            if is_write:
                if spans is not None:
                    env = self.env
                    t0 = env.now
                yield from bb.absorb(node, f, offset, nbytes)
                if spans is not None:
                    spans.leaf_raw.append(
                        (LEAF_BB_ABSORB, node, t0, env.now, nbytes)
                    )
            else:
                barrier = bb.read_barrier(f.file_id)
                if barrier is not None:
                    if spans is not None:
                        spans.wrap_wait("bb.readbarrier", node, barrier)
                    yield barrier
                yield self._fanout(node, f, offset, nbytes, False)
        else:
            yield self._fanout(node, f, offset, nbytes, is_write)
        # Client copy/packetization cost (the single-client throughput bound).
        yield self.env.timeout(nbytes * self.costs.client_byte_cost_s)
        return nbytes

    def _flush_write_buffer(self, node: int, entry: _OpenFile):
        """Push the client write buffer to the data path."""
        f = entry.file
        start, length = entry.wbuf_start, entry.wbuf_len
        entry.wbuf_start, entry.wbuf_len = -1, 0
        if length:
            yield from self._transfer(node, f, start, length, is_write=True)
            f.note_write(node, start, length)

    # ------------------------------------------------------------------- read
    def read(self, node: int, fd: int, nbytes: int, data_out: bool = False):
        """Synchronous read at the current pointer; returns bytes read.

        With ``data_out`` (and content tracking enabled) returns
        ``(count, bytes)`` instead.
        """
        entry = self._entry(node, fd)
        began = self.env.now
        yield from self._perturb()
        if nbytes < 0:
            raise PFSError(f"negative read size {nbytes}")
        f = entry.file
        f.check_record(nbytes)
        c = self.costs
        yield self.env.timeout(c.client_op_overhead_s)

        # Resolve the offset under the mode's discipline.
        if f.sem.collective:
            offset = f.tell(entry)
            count = yield from self._global_read(node, entry, nbytes)
        elif f.sem.node_order:
            if f.sync_parties is None:
                f.sync_parties = f.declared_parties or max(1, len(f.openers))
            n = f.sync_parties
            yield from self._wait(LEAF_SYNC_WAIT, node, f.sync_wait(node, n))
            try:
                offset = f.tell(entry)
                count = f.readable_bytes(offset, nbytes)
                yield from self._transfer(node, f, offset, count, is_write=False)
                f.advance(entry, count)
            finally:
                f.sync_done(n)
        elif f.sem.fcfs_order:
            yield from self._wait(LEAF_TOKEN_ORDER, node, f.order_token.acquire())
            try:
                yield self.env.timeout(c.order_token_hold_s)
                if f.sem.fixed_records:
                    if f.record_parties is None:
                        f.record_parties = f.declared_parties or max(1, len(f.openers))
                    offset = f.record_slot(node, entry.records_read, f.record_parties)
                    entry.records_read += 1
                else:
                    offset = f.tell(entry)
                    f.advance(entry, f.readable_bytes(offset, nbytes))
            finally:
                f.order_token.release()
            count = f.readable_bytes(offset, nbytes)
            yield from self._transfer(node, f, offset, count, is_write=False)
            if f.sem.fixed_records:
                f.set_pointer(entry, offset + count)
        else:
            offset = f.tell(entry)
            count = f.readable_bytes(offset, nbytes)
            hit = entry.rbuf_start <= offset and offset + count <= entry.rbuf_end
            if count and not hit and count <= c.read_buffer_bytes:
                # Fetch a whole buffer block around the request (stdio-style).
                block_start = offset - offset % max(1, c.read_buffer_bytes)
                block_len = f.readable_bytes(block_start, c.read_buffer_bytes)
                yield from self._transfer(node, f, block_start, block_len, False)
                entry.rbuf_start, entry.rbuf_end = block_start, block_start + block_len
            elif count and not hit:
                yield from self._transfer(node, f, offset, count, is_write=False)
            f.advance(entry, count)
        entry.last_op_offset = offset
        telem = self.telemetry
        if telem is not None:
            telem.reads += 1
            telem.read_bytes += count
        self._emit(began, node, Op.READ, f.file_id, offset, count, self.env.now - began)
        if data_out:
            return count, f.read_content(offset, count) if f.track_content else b""
        return count

    def _global_read(self, node: int, entry: _OpenFile, nbytes: int):
        """M_GLOBAL: every opener issues the same read; one physical I/O
        whose result is broadcast, and nobody proceeds before the data
        lands everywhere."""
        f = entry.file
        parties = f.declared_parties or max(1, len(f.openers))
        offset = f.tell(entry)
        count = f.readable_bytes(offset, nbytes)
        arrived, done, leader = f.global_arrive(parties)
        spans = self.spans
        if leader:
            yield arrived
            yield from self._transfer(node, f, offset, count, is_write=False)
            if spans is not None:
                env = self.env
                t0 = env.now
            yield self.env.timeout(
                self.machine.mesh.broadcast_time(node, parties, count)
            )
            if spans is not None:
                spans.leaf_raw.append(
                    (LEAF_MESH_BCAST, node, t0, env.now, count)
                )
            f.advance(entry, count)
            done.succeed(count)
        else:
            if spans is not None:
                spans.wrap_wait("bcast.wait", node, done)
            yield done
        return count

    # ------------------------------------------------------------------ write
    def write(self, node: int, fd: int, nbytes: int, data: Optional[bytes] = None):
        """Synchronous write at the current pointer; returns bytes written."""
        entry = self._entry(node, fd)
        began = self.env.now
        yield from self._perturb()
        if nbytes < 0:
            raise PFSError(f"negative write size {nbytes}")
        if data is not None and len(data) != nbytes:
            raise PFSError(f"data length {len(data)} != nbytes {nbytes}")
        f = entry.file
        f.check_record(nbytes)
        c = self.costs
        telem = self.telemetry
        if telem is not None:
            telem.writes += 1
            telem.write_bytes += nbytes
        yield self.env.timeout(c.client_op_overhead_s)
        entry.rbuf_start = entry.rbuf_end = -1  # writes invalidate read buffer

        if f.sem.collective:
            raise ModeError("M_GLOBAL files are read-only in this model")

        if f.sem.node_order:
            if f.sync_parties is None:
                f.sync_parties = f.declared_parties or max(1, len(f.openers))
            n = f.sync_parties
            yield from self._wait(LEAF_SYNC_WAIT, node, f.sync_wait(node, n))
            try:
                offset = f.tell(entry)
                yield from self._locked_write(node, f, offset, nbytes, data)
                f.advance(entry, nbytes)
            finally:
                f.sync_done(n)
        elif f.sem.fcfs_order:
            yield from self._wait(LEAF_TOKEN_ORDER, node, f.order_token.acquire())
            try:
                yield self.env.timeout(c.order_token_hold_s)
                if f.sem.fixed_records:
                    if f.record_parties is None:
                        f.record_parties = f.declared_parties or max(1, len(f.openers))
                    offset = f.record_slot(node, entry.records_written, f.record_parties)
                    entry.records_written += 1
                else:
                    offset = f.tell(entry)
                    f.advance(entry, nbytes)
            finally:
                f.order_token.release()
            yield from self._locked_write(node, f, offset, nbytes, data)
            if f.sem.fixed_records:
                f.set_pointer(entry, offset + nbytes)
        else:
            offset = f.tell(entry)
            buffered = (
                c.write_buffer_bytes > 0
                and 0 < nbytes <= c.write_buffer_bytes
                and not f.shared
            )
            if buffered:
                contiguous = entry.wbuf_start + entry.wbuf_len == offset
                if entry.wbuf_len and not contiguous:
                    yield from self._flush_write_buffer(node, entry)
                if entry.wbuf_len == 0:
                    entry.wbuf_start = offset
                entry.wbuf_len += nbytes
                if f.track_content and data is not None:
                    f.write_content(offset, data)
                f.note_write(node, offset, nbytes)
                f.advance(entry, nbytes)
                if entry.wbuf_len >= c.write_buffer_bytes:
                    yield from self._flush_write_buffer(node, entry)
            else:
                if entry.wbuf_len:
                    yield from self._flush_write_buffer(node, entry)
                yield from self._locked_write(node, f, offset, nbytes, data)
                f.advance(entry, nbytes)
        entry.last_op_offset = offset
        self._emit(began, node, Op.WRITE, f.file_id, offset, nbytes, self.env.now - began)
        return nbytes

    def _locked_write(self, node: int, f: PFSFile, offset: int, nbytes: int, data):
        """Write with per-file atomicity locking when the mode requires it."""
        lock_needed = f.sem.atomic and f.shared
        if lock_needed:
            yield from self._wait(LEAF_TOKEN_WRITE, node, f.write_token.acquire())
        try:
            if lock_needed:
                yield self.env.timeout(self.costs.shared_write_hold_s)
            yield from self._transfer(node, f, offset, nbytes, is_write=True)
        finally:
            if lock_needed:
                f.write_token.release()
        if f.track_content and data is not None:
            f.write_content(offset, data)
        f.note_write(node, offset, nbytes)

    # ------------------------------------------------------------------- seek
    def seek(self, node: int, fd: int, offset: int, whence: int = SEEK_SET,
             traced: bool = True):
        """Position the file pointer; returns the new offset.

        Shared-file seeks serialize on the file token (a metadata round
        trip in PFS — the cost that dominates ESCAT's I/O time); seeks on
        privately-open files are a cheap client-side operation.  The row
        records the seek *distance* as its byte count (how Table 5
        accounts seek volume).  ``traced=False`` repositions without
        capture: no perturbation and no row (trace replay restoring an
        offset).
        """
        entry = self._entry(node, fd)
        f = entry.file
        before = f.tell(entry)
        began = self.env.now
        if traced:
            yield from self._perturb()
        if not f.sem.seekable:
            raise ModeError(f"{f.mode} files are not seekable")
        target = self._seek_target(entry, offset, whence)
        telem = self.telemetry
        if telem is not None:
            telem.seeks += 1
        if entry.wbuf_len:
            yield from self._flush_write_buffer(node, entry)
        entry.rbuf_start = entry.rbuf_end = -1
        yield self.env.timeout(self.costs.client_op_overhead_s)
        if f.shared:
            yield from self._wait(LEAF_TOKEN_SEEK, node, f.write_token.acquire())
            try:
                yield self.env.timeout(self.costs.shared_seek_hold_s)
            finally:
                f.write_token.release()
        f.set_pointer(entry, target)
        if traced:
            self._emit(began, node, Op.SEEK, f.file_id, target, abs(target - before),
                       self.env.now - began)
        return target

    @staticmethod
    def _seek_target(entry: _OpenFile, offset: int, whence: int) -> int:
        """The offset a seek by ``offset`` from ``whence`` lands on."""
        f = entry.file
        if whence == SEEK_SET:
            target = offset
        elif whence == SEEK_CUR:
            target = f.tell(entry) + offset
        elif whence == SEEK_END:
            target = f.size + offset
        else:
            raise PFSError(f"bad whence {whence}")
        if target < 0:
            raise PFSError(f"seek to negative offset {target}")
        return target

    def unlink(self, node: int, path: str):
        """Remove a file (metadata operation).

        Refuses while any node holds the file open — the simple semantics
        production scratch-file management relied on.
        """
        f = self._files.get(path)
        if f is None:
            raise FileNotFound(path)
        if f.openers:
            raise PFSError(f"cannot unlink {path!r}: open on nodes {sorted(f.openers)}")
        req = self._meta_server.request()
        yield req
        try:
            yield self.env.timeout(self.costs.close_service_s)
        finally:
            self._meta_server.release(req)
        del self._files[path]

    def rename(self, node: int, old: str, new: str):
        """Rename a file (metadata operation; fails if ``new`` exists)."""
        f = self._files.get(old)
        if f is None:
            raise FileNotFound(old)
        if new in self._files:
            raise FileExists(new)
        req = self._meta_server.request()
        yield req
        try:
            yield self.env.timeout(self.costs.close_service_s)
        finally:
            self._meta_server.release(req)
        del self._files[old]
        f.path = new
        self._files[new] = f

    # ------------------------------------------------------- metadata queries
    def lsize(self, node: int, fd: int):
        """File-size query (PFS ``lsize``); returns the size."""
        f = self._entry(node, fd).file
        began = self.env.now
        yield from self._perturb()
        req = self._meta_server.request()
        yield req
        try:
            yield self.env.timeout(self.costs.lsize_service_s)
        finally:
            self._meta_server.release(req)
        self._emit(began, node, Op.LSIZE, f.file_id, 0, 0, self.env.now - began)
        return f.size

    def flush(self, node: int, fd: int):
        """Force buffered data out (Fortran ``forflush`` analog).

        A dirty file costs a visit to the file's primary I/O node; a clean
        one is a client-side no-op.
        """
        entry = self._entry(node, fd)
        f = entry.file
        began = self.env.now
        yield from self._perturb()
        yield self.env.timeout(self.costs.client_op_overhead_s)
        if entry.wbuf_len:
            yield from self._flush_write_buffer(node, entry)
        if node in f.dirty_nodes:
            ion = self.machine.ionodes[f.layout.first_ionode]
            yield ion.submit_control(self.costs.flush_service_s)
            f.dirty_nodes.discard(node)
        self._emit(began, node, Op.FLUSH, f.file_id, 0, 0, self.env.now - began)

    # ------------------------------------------------------------ async reads
    def aread(self, node: int, fd: int, nbytes: int):
        """Issue an asynchronous read; returns an :class:`AreadHandle`.

        The issuing call costs only ``aread_issue_s``; the transfer runs in
        the background, and its client-side copy serializes through the
        node's copy engine (bounding aggregate async throughput exactly as
        a real client's memory system would).  Its row's duration is the
        issue cost only; the :meth:`iowait` row carries the blocking time
        (Table 3 reports them separately).
        """
        entry = self._entry(node, fd)
        f = entry.file
        at = f.tell(entry)  # the row's offset, read before the delay
        began = self.env.now
        yield from self._perturb()
        if nbytes < 0:
            raise PFSError(f"negative read size {nbytes}")
        if f.sem.shared_pointer or f.sem.fixed_records:
            raise ModeError(f"async reads unsupported in {f.mode}")
        offset = f.tell(entry)
        count = f.readable_bytes(offset, nbytes)
        f.advance(entry, count)  # pointer advances at issue time (NX semantics)
        telem = self.telemetry
        if telem is not None:
            telem.areads += 1
            telem.read_bytes += count
        yield self.env.timeout(self.costs.aread_issue_s)
        done = Event(self.env)
        handle = AreadHandle(done, count, f.file_id, offset, self.env.now)
        spans = self.spans
        bg_sid = (
            spans.store.begin("aread.bg", node, self.env.now, -1, count)
            if spans is not None
            else -1
        )

        def _background():
            if count:
                if spans is not None:
                    # The fan-out runs outside the issuing op's lifetime;
                    # parent its chunks under the background root span.
                    spans.fanout_parent = bg_sid
                yield self._fanout(node, f, offset, count, is_write=False)
                copier = self._copier(node)
                creq = copier.request()
                yield creq
                try:
                    yield self.env.timeout(count * self.costs.client_byte_cost_s)
                finally:
                    copier.release(creq)
            if spans is not None:
                spans.store.finish(bg_sid, self.env.now)
            done.succeed(count)

        self.env.process(_background())
        entry.pending.append(handle)
        self._emit(began, node, Op.AREAD, f.file_id, at, count, self.env.now - began)
        return handle

    def iowait(self, node: int, handle: AreadHandle):
        """Block until an async read completes; returns bytes read."""
        began = self.env.now
        yield from self._perturb()
        if not handle.complete:
            yield handle.event
        else:
            yield self.env.timeout(0.0)
        self._emit(began, node, Op.IOWAIT, handle.file_id, handle.offset, 0,
                   self.env.now - began)
        return handle.nbytes
