"""Fluid fidelity: closed-form service of regular I/O phases.

Discrete-event simulation prices every request individually: each
``read``/``write``/``seek`` costs a handful of kernel events (client
overheads, mesh transfers, I/O-node queueing, completion countdowns).
For the paper's workloads that is wasted work — the long middle phases
(HTF's integral write loop and SCF read sweeps, ESCAT's iteration loop,
synchronized checkpoint dumps) are *regular*: every node runs the same
compute/IO chain against the same striped files, and the whole phase's
timing is determined by the same service laws the event kernel applies
one event at a time.

:class:`FluidServicer` exploits that regularity.  Applications *offer*
a phase to the servicer as a cohort of per-node **plans** — flat op
chains built with the module-level constructors (:func:`compute`,
:func:`barrier`, :func:`seek`, :func:`write`, :func:`read`,
:func:`flush`, :func:`mark`).  Each phase is written once, as one
generator of those ops: :meth:`repro.apps.base.Application.phase`
enrolls it here, or runs it op by op on the event path when the offer
declines.  Once every party has enrolled, the
servicer waits for the kernel's phase boundary
(:meth:`Environment.at_boundary` — the instant when all same-time work
is drained) and then solves the whole phase in one pass:

* a single :mod:`heapq` loop processes ops in global start-time order,
  so cross-node interactions (shared-file write tokens, barrier
  releases, I/O-node FIFO queueing) resolve exactly as the event kernel
  would resolve them at op granularity;
* each chunk takes the *real* component laws —
  :meth:`StripeLayout.decompose`, the memoized
  :meth:`Mesh.message_time`, and the I/O node's own service law:
  :meth:`IONode.price` charges it (head motion, node counters,
  telemetry) and :meth:`IONode.reserve` queues it FIFO at its arrival,
  exactly as the eager chain does at submit;
* the pass hands the same per-op rows to the file system's capture sink
  and bumps the same filesystem telemetry counters the discrete path
  would, then arms **one** :meth:`Environment.schedule_at` completion
  per plan instead of thousands of per-request events.

Fluid mode is approximate by contract (see ``docs/PERFORMANCE.md``):
chunks of one op are enqueued at the I/O node as a unit, so sub-
millisecond arrival interleavings *between* ops can be reordered, and
per-op compute jitter is drawn at plan-build time rather than
interleaved with other nodes' draws.  Total service demand is
conserved, so phase makespans track the discrete twin closely (the
test suite and ``BENCH_fluid.json`` bound the error).  Anything the
closed form cannot reproduce **declines** instead of approximating:

* unhealthy machine — any non-eager or faulted I/O node, or an active
  fault injector (the experiment layer never attaches a servicer when
  faults are configured);
* PPFS interposition — client/server caches, prefetching, or
  write-behind (cache state and drain timing feed back into request
  ordering);
* burst-buffer-tiered files, shared-pointer / fixed-record /
  collective / ordered access modes, buffered small writes, and
  block-buffered small reads (all carry cross-request state the
  per-op laws above do not model).

A declined offer returns ``None`` and the application runs the same
ops on the event path, byte-identical to an ``--fidelity event`` run.
Because eligibility is checked against a cheap *probe* (op shapes
only) before the plan builder runs, a declined offer consumes no RNG
draws and perturbs nothing.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional, Sequence

from ..pablo.events import Op
from .core import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pfs.filesystem import PFS

__all__ = [
    "FluidServicer",
    "compute",
    "barrier",
    "seek",
    "write",
    "read",
    "flush",
    "mark",
]

# Plan op opcodes.  Raw (application-facing) tuples carry file
# descriptors; enroll resolves them to (file, cursor) pairs once.
OP_COMPUTE, OP_BARRIER, OP_SEEK, OP_WRITE, OP_READ, OP_FLUSH, OP_MARK = range(7)

_BARRIER = (OP_BARRIER,)


def compute(seconds: float) -> tuple:
    """Local computation for ``seconds`` (accrues node compute time)."""
    return (OP_COMPUTE, seconds)


def barrier() -> tuple:
    """Cohort-wide barrier: all plans arrive, all release at the max."""
    return _BARRIER


def seek(fd: int, offset: int) -> tuple:
    """Reposition ``fd``'s pointer (shared files serialize on the token)."""
    return (OP_SEEK, fd, offset)


def write(fd: int, nbytes: int) -> tuple:
    """Unbuffered write of ``nbytes`` at the current pointer."""
    return (OP_WRITE, fd, nbytes)


def read(fd: int, nbytes: int) -> tuple:
    """Direct (unbuffered) read of ``nbytes`` at the current pointer."""
    return (OP_READ, fd, nbytes)


def flush(fd: int) -> tuple:
    """Flush ``fd`` (a control visit to the first I/O node when dirty)."""
    return (OP_FLUSH, fd)


def mark(label: str) -> tuple:
    """Record ``(label, time)`` in the plan's marks (returned on completion)."""
    return (OP_MARK, label)


class _Plan:
    """One node's op chain within a cohort."""

    __slots__ = (
        "node", "start", "ops", "mod", "done", "idx", "bidx", "marks", "end",
    )

    def __init__(self, node, start, ops, mod, done):
        self.node = node
        self.start = start
        self.ops = ops
        self.mod = mod
        self.done = done
        self.idx = 0
        self.bidx = 0
        self.marks: list[tuple[str, float]] = []
        self.end: Optional[float] = None


class _Cohort:
    """Enrollment state for one phase key."""

    __slots__ = ("key", "parties", "plans", "declined", "joined")

    def __init__(self, key, parties, declined):
        self.key = key
        self.parties = parties
        self.plans: list[_Plan] = []
        self.declined = declined
        self.joined = 0


class FluidServicer:
    """Phase-level analytic servicer attached to a :class:`PFS`.

    Created by :meth:`Experiment.run` under ``--fidelity fluid`` (and
    only when no fault injector is active) and published as
    ``fs.fluid``; applications offer their regular phases with
    :meth:`enroll`, most through :meth:`Application.phase`.
    """

    def __init__(self, fs: "PFS") -> None:
        self.fs = fs
        self.env = fs.env
        self.machine = fs.machine
        self._cohorts: dict[Hashable, _Cohort] = {}
        #: per-phase summaries (key, parties, ops, span) for reporting
        self.phases: list[dict[str, Any]] = []
        self.phases_solved = 0
        self.phases_declined = 0
        self.ops_serviced = 0

    # -- eligibility ------------------------------------------------------

    def _machine_ok(self) -> bool:
        """Whole-machine preconditions for closed-form service."""
        for ion in self.machine.ionodes:
            if not ion.eager:
                return False
        writeback = self.fs.writeback
        if writeback is not None and not writeback.idle:
            return False
        return True

    def _validate(self, node: int, probe: Sequence[tuple], parties: int) -> bool:
        """Check a probe (op shapes) against per-file eligibility rules.

        ``f.shared`` may still be settling while early parties enroll
        (opens serialize on the metadata server), so the buffered-write
        check trusts ``parties > 1`` to mean the file will be shared by
        the time any plan op runs; the solver re-checks and raises if an
        accepted small write turns out private after all.
        """
        fs = self.fs
        c = fs.costs
        for op in probe:
            kind = op[0]
            if kind == OP_COMPUTE or kind == OP_BARRIER or kind == OP_MARK:
                continue
            entry = fs._entry(node, op[1])
            f = entry.file
            if not fs.fluid_ok(f):
                return False
            sem = f.sem
            if (sem.shared_pointer or sem.fixed_records or sem.collective
                    or sem.node_order or sem.fcfs_order):
                return False
            if entry.wbuf_len:
                return False
            if kind == OP_WRITE:
                nbytes = op[2]
                if nbytes <= 0:
                    return False
                if (c.write_buffer_bytes > 0 and nbytes <= c.write_buffer_bytes
                        and not f.shared and parties == 1):
                    return False  # would take the buffered path
            elif kind == OP_READ:
                if op[2] <= c.read_buffer_bytes:
                    return False  # would take the block-buffered path
            elif kind == OP_SEEK:
                if not sem.seekable:
                    return False
        return True

    # -- enrollment -------------------------------------------------------

    def enroll(
        self,
        key: Hashable,
        parties: int,
        node: int,
        probe: Sequence[tuple],
        build: Callable[[], Sequence[tuple]],
        mod=None,
    ) -> Optional[Event]:
        """Offer one node's share of phase ``key`` for fluid service.

        ``probe`` is a cheap list of representative raw ops (one per
        distinct ``(fd, kind, nbytes)`` shape the plan will use) checked
        against the eligibility rules *before* ``build`` is called, so a
        decline consumes no RNG draws.  ``build`` returns the full raw op
        chain (any iterable, a generator included);
        ``mod`` (optional) is the compute node whose ``compute_time``
        absorbs :func:`compute` ops.

        Returns the plan's completion :class:`Event` — fired at the
        solved end time with the plan's ``(label, time)`` marks as its
        value — or ``None`` when the phase must run discretely.  The
        verdict is cohort-wide: the first party's decline caches so every
        later party also receives ``None``.
        """
        cohorts = self._cohorts
        cohort = cohorts.get(key)
        if cohort is None:
            cohort = cohorts[key] = _Cohort(key, parties, not self._machine_ok())
        if not cohort.declined and (
            self.fs.capture_overhead_s != 0.0  # capture perturbation
            or not self._validate(node, probe, parties)
        ):
            if cohort.plans:
                raise RuntimeError(
                    f"fluid cohort {key!r}: node {node} failed eligibility "
                    f"after {len(cohort.plans)} plans were already accepted"
                )
            cohort.declined = True
        cohort.joined += 1
        if cohort.declined:
            if cohort.joined == parties:
                self.phases_declined += 1
                del cohorts[key]
            return None
        env = self.env
        ops = self._resolve(node, build())
        plan = _Plan(node, env.now, ops, mod, Event(env))
        cohort.plans.append(plan)
        if cohort.joined == parties:
            env.at_boundary(partial(self._solve, cohort))
        return plan.done

    def _resolve(self, node: int, raw: Sequence[tuple]) -> list[tuple]:
        """Rewrite raw fd-bearing ops to carry ``(file, cursor)`` directly."""
        fs = self.fs
        out = []
        for op in raw:
            kind = op[0]
            if kind == OP_WRITE or kind == OP_READ or kind == OP_SEEK:
                entry = fs._entry(node, op[1])
                out.append((kind, entry.file, entry, op[2]))
            elif kind == OP_FLUSH:
                entry = fs._entry(node, op[1])
                out.append((kind, entry.file, entry))
            else:
                out.append(op)
        return out

    # -- the solver -------------------------------------------------------

    def _solve(self, cohort: _Cohort) -> None:
        """Price the whole cohort in one pass and arm its completions.

        Ops are processed in global start-time order (a heap of per-plan
        resume times; a popped plan runs consecutive ops while it does
        not overtake the next-earliest plan), so token grants and FIFO
        disk queueing resolve in the same order the event kernel would
        grant them.
        """
        env = self.env
        fs = self.fs
        plans = cohort.plans
        parties = cohort.parties
        machine = fs.machine
        mesh_time = machine.mesh.message_time
        ionodes = machine.ionodes
        io_pos = fs._io_mesh_pos
        chunk_extra = fs._chunk_extra
        c = fs.costs
        op_overhead = c.client_op_overhead_s
        byte_cost = c.client_byte_cost_s
        seek_hold = c.shared_seek_hold_s
        write_hold = c.shared_write_hold_s
        flush_service = c.flush_service_s
        wbuf_max = c.write_buffer_bytes
        op_read, op_write, op_seek, op_flush = Op.READ, Op.WRITE, Op.SEEK, Op.FLUSH
        emit = fs._emit
        now = env.now

        base = [ion.horizon for ion in ionodes]
        token_free: dict[Any, float] = {}
        barriers: dict[int, list] = {}
        n_ops = 0
        # Op counts and bytes for the telemetry counters, added in one
        # go: the whole pass runs at one simulated instant.
        reads = writes = seeks = read_bytes = write_bytes = 0

        heap = [(p.start, i, p) for i, p in enumerate(plans)]
        heapq.heapify(heap)
        seq = len(plans)
        push = heapq.heappush

        while heap:
            t, _, plan = heapq.heappop(heap)
            ops = plan.ops
            nops = len(ops)
            node = plan.node
            while True:
                i = plan.idx
                if i == nops:
                    plan.end = t
                    break
                op = ops[i]
                kind = op[0]
                if kind == OP_BARRIER:
                    plan.idx = i + 1
                    b = plan.bidx
                    plan.bidx = b + 1
                    arrivals = barriers.get(b)
                    if arrivals is None:
                        arrivals = barriers[b] = []
                    arrivals.append(plan)
                    if len(arrivals) == parties:
                        # processed in time order, so this arrival is the max;
                        # re-queue waiters in arrival order (FIFO, like the
                        # discrete Barrier's waiter list).
                        for p in arrivals:
                            push(heap, (t, seq, p))
                            seq += 1
                    break
                n_ops += 1
                if kind == OP_COMPUTE:
                    dt = op[1]
                    t += dt
                    mod = plan.mod
                    if mod is not None:
                        mod.compute_time += dt
                elif kind == OP_WRITE or kind == OP_READ:
                    is_write = kind == OP_WRITE
                    f = op[1]
                    entry = op[2]
                    nbytes = op[3]
                    t0 = t
                    t += op_overhead
                    offset = f.tell(entry)
                    if is_write:
                        entry.rbuf_start = entry.rbuf_end = -1
                        count = nbytes
                        shared = f.shared
                        if not shared and 0 < wbuf_max >= nbytes:
                            raise RuntimeError(
                                f"fluid cohort {cohort.key!r}: accepted write of "
                                f"{nbytes} B on a private file would take the "
                                f"buffered path — the enrolling phase mis-hinted"
                            )
                        locked = f.sem.atomic and shared
                        if locked:
                            grant = token_free.get(f, 0.0)
                            if grant < t:
                                grant = t
                            t = grant + write_hold
                    else:
                        count = f.readable_bytes(offset, nbytes)
                    if count:
                        op_end = t
                        for chunk in f.layout.decompose(offset, count):
                            ci = chunk.ionode
                            ion = ionodes[ci]
                            cn = chunk.nbytes
                            arrival = t + mesh_time(node, io_pos[ci], cn)
                            service = ion.price(
                                chunk.disk_offset, cn, is_write, chunk_extra(cn, is_write)
                            )
                            end = ion.reserve(arrival, service)
                            if end > op_end:
                                op_end = end
                        t = op_end + count * byte_cost
                    if is_write:
                        if locked:
                            token_free[f] = t
                        f.note_write(node, offset, nbytes)
                        code = op_write
                    else:
                        code = op_read
                    f.advance(entry, count)
                    entry.last_op_offset = offset
                    if is_write:
                        writes += 1
                        write_bytes += count
                    else:
                        reads += 1
                        read_bytes += count
                    emit(t0, node, code, f.file_id, offset, count, t - t0)
                elif kind == OP_SEEK:
                    f = op[1]
                    entry = op[2]
                    target = op[3]
                    t0 = t
                    seeks += 1
                    before = f.tell(entry)
                    entry.rbuf_start = entry.rbuf_end = -1
                    t += op_overhead
                    if f.shared:
                        grant = token_free.get(f, 0.0)
                        if grant < t:
                            grant = t
                        t = grant + seek_hold
                        token_free[f] = t
                    f.set_pointer(entry, target)
                    moved = target - before
                    if moved < 0:
                        moved = -moved
                    emit(t0, node, op_seek, f.file_id, target, moved, t - t0)
                elif kind == OP_FLUSH:
                    f = op[1]
                    t0 = t
                    t += op_overhead
                    if node in f.dirty_nodes:
                        t = ionodes[f.layout.first_ionode].reserve(t, flush_service)
                        f.dirty_nodes.discard(node)
                    emit(t0, node, op_flush, f.file_id, 0, 0, t - t0)
                else:  # OP_MARK
                    plan.marks.append((op[1], t))
                plan.idx = i + 1
                if heap and t > heap[0][0]:
                    push(heap, (t, seq, plan))
                    seq += 1
                    break

        stuck = [p for p in plans if p.end is None]
        if stuck:
            raise RuntimeError(
                f"fluid cohort {cohort.key!r}: {len(stuck)} of {parties} "
                f"plans never finished — divergent barrier structure"
            )

        telem = fs.telemetry
        if telem is not None:
            telem.reads += reads
            telem.writes += writes
            telem.seeks += seeks
            telem.read_bytes += read_bytes
            telem.write_bytes += write_bytes

        # Hold the busy horizon so later *discrete* submits queue behind
        # the fluid tail exactly as they would behind real work.
        for ion, since in zip(ionodes, base):
            ion.hold_horizon(since)

        first = min(p.start for p in plans)
        last = now
        for plan in plans:
            end = plan.end
            if end > last:
                last = end
            if end < now:
                end = now  # clamp: completions may not precede the solve
            env.schedule_at(end).callbacks.append(partial(self._finish, plan))
        spans = getattr(fs, "spans", None)
        if spans is not None:
            # Closed-form phases have no per-request events to hook, so the
            # solver synthesizes its span tree directly: one phase-level
            # span plus one span per solved plan (aux = op count).
            psid = spans.add("fluid.phase", -1, first, last, aux=float(n_ops))
            for plan in plans:
                spans.add(
                    "fluid.plan", plan.node, plan.start, plan.end, psid,
                    aux=float(len(plan.ops)),
                )
        self.phases_solved += 1
        self.ops_serviced += n_ops
        self.phases.append({
            "key": cohort.key if isinstance(cohort.key, str) else repr(cohort.key),
            "parties": parties,
            "ops": n_ops,
            "start": first,
            "end": last,
        })
        del self._cohorts[cohort.key]

    @staticmethod
    def _finish(plan: _Plan, _event) -> None:
        plan.done.succeed(plan.marks)
