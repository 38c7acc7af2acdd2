"""I/O node: a scheduling server in front of one RAID-3 array.

Sixteen of these served the Caltech Paragon (§3.2).  Each accepts stripe-
unit requests from the file system, schedules them onto its array (one
arm assembly), and charges the array's positioning-aware service time.
Queueing here is what turns 128 simultaneous small writes into the
multi-second per-op "node times" of Table 1.

Two arm-scheduling disciplines are provided — §3 names "disk arm
scheduling and request aggregation" as the file system/driver's final
responsibility, and the ablation bench compares them:

* ``fifo`` — serve in arrival order (the baseline);
* ``sstf`` — shortest-seek-time-first: among pending requests, serve the
  one nearest the current head position (better throughput under
  interleaved streams, at some fairness cost).

Fault model (driven by :mod:`repro.faults`): a node can *crash* —
failing its in-service and queued requests with
:class:`~repro.pfs.errors.IONodeUnavailable` and rejecting new ones until
:meth:`restart` — can silently *drop* a fraction of incoming requests
(detected client-side as :class:`~repro.pfs.errors.IOTimeout` after a
deterministic detection delay), and *rejects* data requests with
:class:`~repro.pfs.errors.DegradedService` during the array controller's
post-disk-loss reconfiguration window.  All of it sits behind a single
``_faulty`` flag so a fault-free run pays one attribute check per
submission and nothing else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, repeat
from typing import Callable, Optional

import numpy as np

from ..pfs.errors import DegradedService, IONodeUnavailable, IOTimeout
from ..pfs.fanout import Join
from ..sim.core import Environment, Event, Timeout
from ..util.validation import check_nonneg
from .raid import Raid3Array, Raid3Params

__all__ = ["IONodeParams", "IONode"]


@dataclass(frozen=True)
class IONodeParams:
    """I/O-node software parameters."""

    raid: Raid3Params = field(default_factory=Raid3Params)
    #: Per-request software cost on the I/O node (OSF/1 server path).
    request_overhead_s: float = 0.0030
    #: Arm scheduling: 'fifo' or 'sstf'.
    scheduler: str = "fifo"

    def __post_init__(self) -> None:
        check_nonneg(self.request_overhead_s, "request_overhead_s")
        if self.scheduler not in ("fifo", "sstf"):
            raise ValueError(f"scheduler must be fifo/sstf, got {self.scheduler!r}")


@dataclass(slots=True)
class _Pending:
    """One queued request."""

    offset: int
    nbytes: int
    is_write: bool
    extra_s: float
    done: Event
    control: bool = False  # control visits: fixed service, no disk motion
    order: int = 0
    seq: int = 0  # the completion's kernel seq, reserved at submit
    # Span context, stamped at submit only when recording is on.
    arrived: float = 0.0
    span_parent: int = -1
    span_row: int = -1


class IONode:
    """One I/O node: scheduled queue + RAID-3 array.

    Statistics (`busy_time`, `requests_served`, `bytes_served`) support
    utilization analyses and the PPFS ablation bench.
    """

    def __init__(self, env: Environment, index: int, params: IONodeParams | None = None):
        self.env = env
        self.index = index
        self.params = params or IONodeParams()
        self.array = Raid3Array(self.params.raid)
        self._fifo = self.params.scheduler == "fifo"
        self._pending: list[_Pending] = []
        self._busy = False
        self._order = 0
        # -- eager (batched) FIFO service -----------------------------------
        # Under FIFO the service order equals the arrival order, so the
        # whole busy-period chain is determined at submission: service
        # times can be computed immediately (the head-position recurrence
        # only depends on prior arrivals) and each completion armed at its
        # absolute end time.  That collapses the scalar path's three
        # kernel events per request (dispatch deferral, service timeout,
        # completion trigger) to two and skips the queue bookkeeping.
        # Any fault transition permanently falls back to the scalar queue
        # (fault plans change service rates between arrival and service,
        # which eager precomputation cannot see); the scalar FIFO queue is
        # also the reference the eager chain is tested against.
        self._eager = self._fifo
        self._free_at = 0.0  # absolute end time of the last armed service
        # Priced, not yet completed services in FIFO order, one entry
        # ``[end, seq, done, join, node]`` each.  A chunk folded into a
        # fan-out Join has no done event (``done`` None, ``join`` set):
        # nothing pops its entry when it completes, so it expires lazily
        # once the kernel's current (time, seq) key has passed (end, seq).
        self._eager_open: deque[list] = deque()
        self.busy_time = 0.0
        self.requests_served = 0
        self.bytes_served = 0
        # -- fault state (repro.faults); _faulty gates it all ----------------
        self._faulty = False
        self._up = True
        self._down_since = 0.0
        self._reject_until = -1.0
        self._drop: Optional[tuple[float, object, float]] = None
        self._inflight: Optional[_Pending] = None
        self._restart_event: Optional[Event] = None
        self._restart_listeners: list[Callable[["IONode"], None]] = []
        self.downtime = 0.0
        self.dropped_requests = 0
        self.failed_requests = 0
        # Telemetry request-size hook (a bound Histogram.observe); None = off.
        self._telem = None
        # Span recorder handle (repro.spans); None = off.
        self._spans = None

    @property
    def queue_length(self) -> int:
        """Requests waiting (not in service)."""
        n_open = len(self._expire())
        if n_open:
            return n_open - 1 + len(self._pending)
        return len(self._pending)

    @property
    def busy(self) -> bool:
        """A request is in service (scalar dispatcher or eager chain)."""
        return self._busy or bool(self._expire())

    def _expire(self) -> deque:
        """Drop folded entries whose completion the kernel has passed.

        A folded chunk completes at its reserved ``(end, seq)`` key; it is
        done once that key lies behind the kernel's current ``(now,
        seq)``.  Entries with a done event pop themselves when it fires,
        and every entry behind the first open one is open too (keys grow
        along the FIFO), so expiring the head run is enough.
        """
        open_ = self._eager_open
        if open_:
            env = self.env
            now, cur = env.now, env._cur_seq
            while open_:
                entry = open_[0]
                if entry[2] is not None or entry[0] > now or (
                    entry[0] == now and entry[1] > cur
                ):
                    break
                open_.popleft()
        return open_

    @property
    def up(self) -> bool:
        """False between :meth:`crash` and :meth:`restart`."""
        return self._up

    # -- request entry points ------------------------------------------------
    def submit(
        self,
        offset: int,
        nbytes: int,
        is_write: bool,
        extra_s: float = 0.0,
        span_parent: float = -1.0,
        join: Optional[Join] = None,
    ) -> Optional[Event]:
        """Queue a data request; the returned event fires on completion
        with the in-service duration (excluding queueing delay) as value.

        ``extra_s`` adds caller-specified server-path cost (the file
        system's per-chunk software charges).  ``span_parent`` is the
        causal span id (or deferred ``-(node + 2)`` encoding) the
        request nests under when recording is on; spans-off callers
        leave the default.  This is the allocation-lean entry point the
        hot data path uses: callers chain on the event's callbacks
        instead of wrapping a generator in a Process.

        Under injected faults the returned event may *fail* with a
        :class:`~repro.pfs.errors.TransientIOError` subclass; callers on
        the retry path check ``event.ok`` in their completion callbacks.

        With a fan-out :class:`~repro.pfs.fanout.Join` the request is one
        chunk of it and the join tracks its completion: an eager node
        folds it (no per-chunk kernel event, returns ``None``), a
        scalar queue counts its done event down.
        """
        if self._eager:
            return self._eager_submit(
                offset, nbytes, is_write, extra_s, False, span_parent, join
            )
        req = _Pending(offset, nbytes, is_write, extra_s, Event(self.env))
        if join is not None:
            join.add(req.done)
        return self._submit(req, span_parent)

    def serve(self, offset: int, nbytes: int, is_write: bool, extra_s: float = 0.0):
        """Process generator: queue a data request; returns its in-service
        duration (excluding queueing delay) via the process value.

        Generator-friendly wrapper over :meth:`submit`.
        """
        service = yield self.submit(offset, nbytes, is_write, extra_s)
        return service

    def submit_control(
        self, service_s: float, span_parent: float = -1.0, join: Optional[Join] = None
    ) -> Optional[Event]:
        """Queue a control operation (fixed service, no disk motion); the
        returned event fires on completion.

        Allocation-lean sibling of :meth:`visit` for callers that chain
        callbacks or yield the event instead of wrapping a generator in a
        Process — the PPFS server-cache hit path and ``PFS.flush`` issue
        through here.  ``join`` works as in :meth:`submit`.
        """
        if self._eager:
            return self._eager_submit(0, 0, False, service_s, True, span_parent, join)
        req = _Pending(0, 0, False, service_s, Event(self.env), control=True)
        if join is not None:
            join.add(req.done)
        return self._submit(req, span_parent)

    def visit(self, service_s: float):
        """Process generator: occupy the server for ``service_s`` without
        touching the array (control operations like flush)."""
        yield self.submit_control(service_s)

    def _submit(self, req: _Pending, span_parent: float = -1.0) -> Event:
        if self._faulty and self._intercept(req):
            return req.done
        spans = self._spans
        if spans is not None:
            # Hold the row's slot now, so rows land in submit order as on
            # the eager chain; _serve_next fills it.  A request failed
            # before service leaves its slot None.
            req.arrived = self.env.now
            req.span_parent = span_parent
            req.span_row = len(spans.ion_raw)
            spans.ion_raw.append(None)
        req.order = self._order
        self._order += 1
        # Reserve the completion's seq now, as the eager chain arms it at
        # submit: completions that tie in time across nodes then fire in
        # submit order on both engines, not in the order their services
        # happened to start.
        env = self.env
        req.seq = env._seq
        env._seq += 1
        self._pending.append(req)
        if not self._busy:
            self._busy = True
            # Wake the dispatcher via a deferred callback rather than a
            # Process: the deferral keeps every same-time arrival visible
            # to the first _select (the SSTF tests pin this), while the
            # busy-period loop itself runs on timeout callbacks.
            self.env.defer(self._serve_next)
        return req.done

    # -- eager (batched) FIFO service --------------------------------------------
    def _eager_submit(
        self,
        offset: int,
        nbytes: int,
        is_write: bool,
        extra_s: float,
        control: bool,
        span_parent: float = -1.0,
        join: Optional[Join] = None,
    ) -> Optional[Event]:
        """Fast-path submit: compute the service now, arm the completion
        at its absolute end time.

        Bit-exactness with the scalar dispatcher hinges on two details:
        the service expression keeps the scalar grouping, and the
        completion is scheduled via :meth:`Environment.schedule_at` at the
        *stored* end time rather than a relative timeout (``now + (end -
        now)`` need not round back to ``end``).

        A chunk of a fan-out ``join`` arms nothing: it reserves the seq
        its completion event would have taken and hands ``(end, seq)`` to
        the join, which arms one event for all its chunks (see
        :mod:`repro.pfs.fanout`).
        """
        env = self.env
        spans = self._spans
        if control:
            service = extra_s
        else:
            # Head position before service is what the span recorder's
            # closed-form seek decomposition needs (service_time moves it).
            head = self.array._arm.head_pos if spans is not None else -1.0
            service = self.price(offset, nbytes, is_write, extra_s)
        open_ = self._eager_open
        now = env.now
        end = self.reserve(now, service)
        # Completions strictly before now are certainly past: bound the
        # FIFO without needing the kernel's current seq.
        while open_ and open_[0][0] < now:
            open_.popleft()
        if join is not None:
            seq = env._seq
            env._seq = seq + 1
            entry = [end, seq, None, join, self]
            open_.append(entry)
            join.fold(entry)
            done = None
        else:
            done = self._arm_done(end, service)
        if spans is not None:
            spans.ion_raw.append(
                (
                    span_parent,
                    self.index,
                    env.now,
                    service,
                    end,
                    offset,
                    nbytes,
                    extra_s,
                    -1.0 if control else head,
                    1.0 if is_write else 0.0,
                )
            )
        return done

    def submit_batch(
        self,
        offsets,
        sizes,
        is_write: bool,
        extra_s: float = 0.0,
        span_parent: float = -1.0,
    ) -> Event:
        """Queue a same-instant FIFO cohort of data requests in one pass;
        the returned event fires when the *last* of them completes, with
        the cohort's total in-service time as value.

        The vectorized array model prices the whole cohort in one NumPy
        sweep (element-for-element bit-identical to the scalar chain), a
        single left-fold recovers the scalar end-time floats, and one
        kernel event replaces the cohort's ~3n.  Callers must only use
        this where per-chunk completion *times* are not observed
        individually — the write-behind flusher's burst is the canonical
        site.  ``extra_s`` is a scalar or a per-request sequence.  Falls
        back to per-request submits counted down by a
        :class:`~repro.pfs.fanout.Join` whenever the eager path is
        off (SSTF, faults).  Either way each request stages one span row,
        the same row in the same order.
        """
        n = len(offsets)
        env = self.env
        if n == 0:
            ev = Event(env)
            ev.succeed(0.0)
            return ev
        if not self._eager:
            join = Join(env, n)
            extras = (
                [extra_s] * n
                if isinstance(extra_s, (int, float))
                else [float(x) for x in extra_s]
            )
            for off, nb, ex in zip(offsets, sizes, extras):
                self.submit(int(off), int(nb), is_write, ex, span_parent, join)
            return join.done
        offsets = np.asarray(offsets, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        spans = self._spans
        head = self.array._arm.head_pos if spans is not None else -1
        services = (
            self.params.request_overhead_s + np.asarray(extra_s, dtype=np.float64)
        ) + self.array.service_batch(offsets, sizes, is_write)
        self.requests_served += n
        self.bytes_served += int(sizes.sum())
        observe = self._telem
        if observe is not None:
            for nb in sizes.tolist():
                observe(nb)
        # Sequential fold, not cumsum: float addition grouping must match
        # the scalar one-at-a-time chain exactly.
        now = env.now
        free = self._free_at
        first_start = free if free > now else now
        end = first_start
        busy = self.busy_time
        svc = services.tolist()
        for s in svc:
            busy += s
            end += s
        self.busy_time = busy
        self._free_at = end
        done = self._arm_done(end, float(services.sum()))
        if spans is not None:
            # The rows per-request submits would stage: ends by the same
            # fold, heads by the per-disk recurrence (each request leaves
            # the arm at its per-disk end).
            dd = self.array.params.data_disks
            heads = [head, *(offsets[:-1] // dd - (-sizes[:-1] // dd)).tolist()]
            extras = np.broadcast_to(np.asarray(extra_s, dtype=np.float64), (n,))
            spans.ion_raw.extend(zip(
                repeat(span_parent), repeat(self.index), repeat(now), svc,
                list(accumulate(svc, initial=first_start))[1:], offsets.tolist(),
                sizes.tolist(), extras.tolist(), heads, repeat(1.0 if is_write else 0.0),
            ))
        return done

    # -- the service law --------------------------------------------------------
    def price(self, offset: int, nbytes: int, is_write: bool, extra_s: float) -> float:
        """Charge one data request and return its service time.

        The only place a data request is charged, for the eager chain,
        the scalar queue and fluid phases alike: per-request overhead
        plus ``extra_s`` plus the array's positioning-aware service time
        (which moves the head), the served-request and byte counters,
        and the telemetry request-size histogram.  :meth:`submit_batch`
        is its vectorized twin.
        """
        service = (
            self.params.request_overhead_s
            + extra_s
            + self.array.service_time(offset, nbytes, is_write)
        )
        self.requests_served += 1
        self.bytes_served += nbytes
        observe = self._telem
        if observe is not None:
            observe(nbytes)
        return service

    def reserve(self, arrival: float, service: float) -> float:
        """Queue ``service`` seconds FIFO behind the node's busy horizon
        for a request arriving at ``arrival``; returns its end time.

        The only FIFO step: the eager chain reserves at submit (arrival =
        now), fluid phases reserve every chunk and flush visit at its
        solved arrival.  At ``horizon == arrival`` both branches give
        the same end.
        """
        self.busy_time += service
        free = self._free_at
        end = (free if free > arrival else arrival) + service
        self._free_at = end
        return end

    @property
    def horizon(self) -> float:
        """Absolute end time of the last reserved service."""
        return self._free_at

    @property
    def eager(self) -> bool:
        """True while the node prices each request at submit: a FIFO
        node with no fault state ever applied."""
        return self._eager and not self._faulty

    def hold_horizon(self, since: float) -> None:
        """Keep the eager chain busy up to a horizon that :meth:`reserve`
        calls made outside the kernel (fluid phases) moved past ``since``.

        Later discrete submits already queue behind the moved horizon; a
        placeholder completion at it also keeps the chain non-empty, so
        the node reads busy (to telemetry samples and a fault-time
        switch to the scalar queue) as it would behind real armed work.
        """
        end = self._free_at
        if end > since and end > self.env.now:
            self._arm_done(end, 0.0)

    def _arm_done(self, end: float, service: float) -> Event:
        """Append an entry with its own done event, armed at ``end``."""
        done = Event(self.env)
        entry = [end, self.env._seq, done, None, self]
        self._eager_open.append(entry)
        self.env.schedule_at(end).callbacks.append(
            partial(self._eager_done, entry, service)
        )
        return done

    def _eager_done(self, entry: list, service: float, _event: Event) -> None:
        open_ = self._eager_open
        # Folded entries ahead of this one completed earlier in (time,
        # seq) order: drop them on the way.
        while open_ and open_[0] is not entry and open_[0][2] is None:
            open_.popleft()
        if not open_ or open_[0] is not entry:
            return  # stale: the node crashed and this request already failed
        open_.popleft()
        entry[2].succeed(service)
        if not open_ and not self._eager and self._busy:
            # Eager was disabled mid-flight; the scalar dispatcher takes
            # over now that the armed chain has drained.
            self._serve_next()

    def _disable_eager(self) -> None:
        """Permanently fall back to the scalar queue (fault transitions).

        Armed completions stay armed — their times are already exact —
        and requests arriving meanwhile queue behind them exactly as they
        would behind a scalar busy period.  Chunks folded into a fan-out
        join get their own completion events back first, at their
        reserved keys.
        """
        if not self._eager:
            return
        self._eager = False
        self._unfold()
        if self._eager_open:
            self._busy = True

    def _unfold(self) -> None:
        """Expire past folded entries and unfold the joins of the rest,
        so every open entry has its own done event and kernel event."""
        for entry in self._expire():
            join = entry[3]
            if join is not None:
                join.unfold()

    # -- fault interception ----------------------------------------------------
    def _intercept(self, req: _Pending) -> bool:
        """Apply fault state to an arriving request.

        Returns True when the request was consumed (its ``done`` event
        has been failed, now or after a detection delay).  Only reached
        while ``_faulty`` is set, so the fault-free path never pays for
        any of these checks.
        """
        env = self.env
        if not self._up:
            self.failed_requests += 1
            req.done.fail(
                IONodeUnavailable(f"I/O node {self.index} is down")
            )
            return True
        if req.control:
            return False
        if env.now < self._reject_until:
            self.failed_requests += 1
            req.done.fail(
                DegradedService(
                    f"I/O node {self.index}: array reconfiguring after disk loss"
                )
            )
            return True
        drop = self._drop
        if drop is not None:
            probability, rng, detect_s = drop
            if float(rng.random()) < probability:
                self.dropped_requests += 1
                # The request vanishes in flight; the client notices via
                # a detection timeout, modelled here so the failure fires
                # deterministically detect_s after the drop.
                Timeout(env, detect_s).callbacks.append(
                    partial(self._drop_detected, req)
                )
                return True
        return False

    def _drop_detected(self, req: _Pending, _event: Event) -> None:
        req.done.fail(
            IOTimeout(
                f"request to I/O node {self.index} dropped "
                f"(offset={req.offset}, nbytes={req.nbytes})"
            )
        )

    # -- fault state transitions (driven by repro.faults) -----------------------
    def crash(self) -> None:
        """Take the node down, failing the in-service and queued requests."""
        if not self._up:
            return
        self._up = False
        self._eager = False
        self._faulty = True
        self._down_since = self.env.now
        self._unfold()
        inflight, self._inflight = self._inflight, None
        pending, self._pending = self._pending, []
        open_, self._eager_open = self._eager_open, deque()
        self._busy = False
        exc_text = f"I/O node {self.index} crashed"
        if inflight is not None:
            self.failed_requests += 1
            inflight.done.fail(IONodeUnavailable(exc_text))
        for req in pending:
            self.failed_requests += 1
            req.done.fail(IONodeUnavailable(exc_text))
        for entry in open_:
            self.failed_requests += 1
            entry[2].fail(IONodeUnavailable(exc_text))

    def restart(self) -> None:
        """Bring a crashed node back up (empty queue, caches cold)."""
        if self._up:
            return
        self._up = True
        self.downtime += self.env.now - self._down_since
        self._refresh_faulty()
        restart_event, self._restart_event = self._restart_event, None
        for listener in list(self._restart_listeners):
            listener(self)
        if restart_event is not None:
            restart_event.succeed(self)

    def restart_wait(self) -> Event:
        """Event firing at the node's next restart (immediately if up).

        The retry layer's failover path waits on this instead of blind
        backoff while the node is down.
        """
        if self._up:
            return Event(self.env).succeed(self)
        if self._restart_event is None:
            self._restart_event = Event(self.env)
        return self._restart_event

    def on_restart(self, listener: Callable[["IONode"], None]) -> None:
        """Register a persistent restart listener (e.g. PPFS server-cache
        invalidation: a restarted node has lost its cache contents)."""
        self._restart_listeners.append(listener)

    def begin_reconfig(self, duration_s: float) -> None:
        """Reject data requests for ``duration_s`` (post-disk-loss window)."""
        self._disable_eager()
        self._reject_until = self.env.now + duration_s
        self._faulty = True

    def set_drop(self, probability: float, rng, detect_timeout_s: float) -> None:
        """Start dropping each arriving data request with ``probability``.

        Draws come from ``rng`` (a named deterministic stream) in arrival
        order, so runs are bit-reproducible.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        check_nonneg(detect_timeout_s, "detect_timeout_s")
        self._disable_eager()
        self._drop = (probability, rng, detect_timeout_s)
        self._faulty = True

    def clear_drop(self) -> None:
        """Stop dropping requests."""
        self._drop = None
        self._refresh_faulty()

    def _refresh_faulty(self) -> None:
        # _faulty may stay conservatively True until the reject window
        # has visibly expired; _intercept is then a cheap no-op.
        self._faulty = (
            not self._up
            or self._drop is not None
            or self.env.now < self._reject_until
        )

    # -- scheduling --------------------------------------------------------------
    def _select(self) -> int:
        """Index of the next request to serve, per the discipline."""
        if self._fifo or len(self._pending) == 1:
            return 0
        head = self.array._arm.head_pos
        data_disks = self.array.params.data_disks
        best = 0
        best_key = None
        for i, req in enumerate(self._pending):
            if req.control:
                distance = 0  # control ops don't move the arm; serve eagerly
            else:
                distance = abs(req.offset // data_disks - head)
            key = (distance, req.order)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def _serve_next(self, _event: Event | None = None) -> None:
        """Take the next request per the discipline and start its service.

        Callback-driven drain loop: each service is one kernel event
        whose callback acknowledges the request and chains the next one,
        so request N+1 is selected at the instant service N ends.  That
        event takes the seq reserved at submit, which orders tied
        completions as the eager chain does.
        """
        pending = self._pending
        if not pending:
            self._busy = False
            return
        req = pending.pop(self._select())
        spans = self._spans
        if req.control:
            service = req.extra_s
        else:
            head = self.array._arm.head_pos if spans is not None else -1.0
            service = self.price(req.offset, req.nbytes, req.is_write, req.extra_s)
        self.busy_time += service
        if spans is not None:
            spans.ion_raw[req.span_row] = (
                req.span_parent,
                self.index,
                req.arrived,
                service,
                self.env.now + service,
                req.offset,
                req.nbytes,
                req.extra_s,
                -1.0 if req.control else head,
                1.0 if req.is_write else 0.0,
            )
        self._inflight = req
        self.env.schedule_reserved(
            self.env.now + service, req.seq, partial(self._service_done, req, service)
        )

    def _service_done(self, req: _Pending, service: float, _event: Event) -> None:
        if req is not self._inflight:
            return  # stale completion: the node crashed during this service
        self._inflight = None
        req.done.succeed(service)
        self._serve_next()
