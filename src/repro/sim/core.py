"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine based discrete-event engine in
the style of SimPy, sufficient to model the Intel Paragon XP/S machine and
its parallel file system.  Processes are plain Python generators that
``yield`` :class:`Event` objects; the :class:`Environment` advances a
virtual clock and resumes processes when the events they wait on fire.

Determinism guarantees
----------------------
* Events scheduled for the same simulated time fire in schedule order
  (a monotone sequence number breaks ties), so a seeded run is perfectly
  reproducible.
* The kernel itself consumes no randomness; stochastic components draw
  from named :mod:`repro.sim.rng` streams.

Example
-------
>>> env = Environment()
>>> log = []
>>> def proc(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(proc(env, "a", 2.0))
>>> _ = env.process(proc(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. negative delays, re-triggering)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    Attributes
    ----------
    cause:
        The value passed to :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: ``Environment._cur_seq`` when no queue entry is being processed.
_NO_ENTRY = float("inf")

# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled, waiting in queue
_PROCESSED = 2  # callbacks executed


class Event:
    """A happening at a point in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them
    on the environment queue; once the clock reaches their time the
    environment runs their callbacks and marks them *processed*.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to fire successfully at the current time."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        env._immediate.append((env._seq, env.now, self))
        env._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fire with an exception."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        env = self.env
        env._immediate.append((env._seq, env.now, self))
        env._seq += 1
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ plus scheduling: Timeout is the kernel's
        # most-allocated event type, so it pays to trigger in one shot.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        if delay.__class__ is not float:
            delay = float(delay)
        self.delay = delay
        if delay:
            heapq.heappush(env._queue, (env.now + delay, env._seq, self))
        else:
            env._immediate.append((env._seq, env.now, self))
        env._seq += 1


class Process(Event):
    """Wraps a generator; completes (as an event) when the generator ends.

    The wrapped generator may ``yield`` another :class:`Event` (including a
    :class:`Process`) — the process resumes when it fires, receiving its
    value, or having the exception raised inside the generator when it
    failed.  Yielding a non-event is a :class:`SimulationError`.
    """

    __slots__ = ("_generator", "_target", "name", "_observed")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process() requires a generator, got {generator!r}")
        self._generator = generator
        self._target: Optional[Event] = None
        # True once another process waits on (observes) this one; an
        # unobserved failure is re-raised by Environment.run().
        self._observed = False
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the process at the current time.  A direct
        # resume record on the immediate deque replaces the throwaway
        # bootstrap Event; it consumes one sequence number exactly as the
        # old event did, so the schedule order is unchanged.
        env._immediate.append((env._seq, env.now, None, self, None, False))
        env._seq += 1

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        env = self.env
        interrupt_event = Event(env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._state = _TRIGGERED
        interrupt_event.callbacks.append(self._resume_interrupt)
        env._schedule(interrupt_event, 0.0)

    # -- internal --------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # finished before the interrupt fired
            return
        if self._target is not None and self._resume in self._target.callbacks:
            self._target.callbacks.remove(self._resume)
        self._target = None
        self._step(event.value, throw=True)

    def _resume(self, event: Event) -> None:
        self._target = None
        self._step(event._value, throw=not event._ok)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._finish(False, exc)
            return
        cls = target.__class__
        if cls is not Timeout and cls is not Event:
            # Exact-class fast path above covers almost every yield on the
            # data path; only subclasses and errors reach the full checks.
            if not isinstance(target, Event):
                err = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                self._generator.close()
                self._finish(False, err)
                return
            if isinstance(target, Process):
                target._observed = True
        if target._state == _PROCESSED:
            # Already fired: resume at the current timestamp via a direct
            # resume record (one seq number, like the old throwaway Event).
            env = self.env
            env._immediate.append(
                (env._seq, env.now, None, self, target._value, not target._ok)
            )
            env._seq += 1
        else:
            self._target = target
            target.callbacks.append(self._resume)

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        env._immediate.append((env._seq, env.now, self))
        env._seq += 1
        if not ok:
            env._note_failure(self, value)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_done", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._done = 0
        self._count = len(self.events)
        for ev in self.events:
            if isinstance(ev, Process):
                ev._observed = True
        if not self.events:
            self.succeed({})
            return
        observe = self._observe
        for ev in self.events:
            if ev._state == _PROCESSED:
                observe(ev)
            else:
                ev.callbacks.append(observe)

    def _observe(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _values(self) -> dict:
        return {
            i: ev._value
            for i, ev in enumerate(self.events)
            if ev._state >= _TRIGGERED
        }


class AllOf(_Condition):
    """Fires when every constituent event has fired (dict of values)."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == self._count:
            # Every constituent has fired by construction, so the state
            # filter in the base _values() is dead weight here.
            self.succeed({i: ev._value for i, ev in enumerate(self.events)})


class AnyOf(_Condition):
    """Fires when the first constituent event fires (dict of values)."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._values())


class Environment:
    """Simulation clock plus event queue.

    Scheduling uses two structures that together realize one total
    (time, seq) order:

    * ``_queue`` — a binary heap of ``(time, seq, event)`` for events with
      a strictly positive delay, and for events armed late at a reserved
      seq (:meth:`schedule_reserved`), which the heap orders by key even
      at the current time;
    * ``_immediate`` — a FIFO deque for zero-delay work at the current
      time.  Entries are ``(seq, time, event)`` or, for direct process
      resumes that skip the throwaway Event entirely,
      ``(seq, time, None, process, value, throw)``.

    Every scheduling action consumes exactly one sequence number, and
    :meth:`step` always executes the entry with the globally smallest
    ``(time, seq)`` key: the deque is FIFO over monotonically increasing
    sequence numbers at times <= now, so its head is comparable against
    the heap top in O(1).  The firing order is therefore *identical* to
    a single-heap kernel — same-time events still fire in schedule order
    — while the common zero-delay case avoids the heap's log-n cost and
    the bootstrap/immediate events avoid allocation altogether (see
    docs/PERFORMANCE.md for the invariant argument).

    Background events
    -----------------
    ``background`` counts heap-scheduled events that must not keep the
    simulation alive: :meth:`run` returns — without advancing the clock —
    as soon as only background events remain.  A periodic observer (the
    telemetry sampler) increments it when arming a timeout and decrements
    it when the timeout fires; because the count covers only events with
    a strictly positive delay, the zero-delay fast path is untouched, and
    an unfired background timeout simply stays queued for a later
    :meth:`run` call (e.g. the next program of a multi-program pipeline).

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds).
    """

    def __init__(self, initial_time: float = 0.0):
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._immediate: deque = deque()
        self._seq = 0
        #: Sequence number of the entry being processed; ``inf`` while no
        #: entry is (phase boundaries, outside :meth:`run`).  Together with
        #: :attr:`now` it is the current ``(time, seq)`` key, which lets a
        #: component tell whether a completion it folded away (see
        #: :meth:`schedule_reserved`) has already happened.
        self._cur_seq: float = _NO_ENTRY
        self._unhandled: list[BaseException] = []
        #: Pending heap events that must not keep the simulation alive.
        self.background = 0
        #: Phase-boundary callbacks: run once all work at the current
        #: instant is exhausted, before the clock advances (see
        #: :meth:`at_boundary`).
        self._boundary: list[Callable[[], None]] = []

    # -- factory helpers ---------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def defer(self, callback: Callable[[Event], None]) -> Event:
        """Run ``callback`` at the current time, after already-queued
        same-time work (the callback-level analog of a zero timeout)."""
        ev = Event(self)
        ev._state = _TRIGGERED
        ev.callbacks.append(callback)
        self._immediate.append((self._seq, self.now, ev))
        self._seq += 1
        return ev

    def schedule_at(self, when: float, value: Any = None) -> Event:
        """A triggered event firing at *absolute* simulated time ``when``.

        The batched service path arms completions at precomputed absolute
        times; scheduling the stored float directly (instead of a
        ``Timeout`` of ``when - now``) keeps completion timestamps
        bit-identical to the chained scalar path, where ``a + (b - a)``
        need not round back to ``b``.  ``when`` at or before the current
        time lands on the immediate deque (fires after already-queued
        same-time work, like any fresh trigger).
        """
        if when < self.now:
            raise SimulationError(f"schedule_at({when}) is in the past (now={self.now})")
        ev = Event(self)
        ev._value = value
        ev._state = _TRIGGERED
        if when > self.now:
            heapq.heappush(self._queue, (when, self._seq, ev))
        else:
            self._immediate.append((self._seq, self.now, ev))
        self._seq += 1
        return ev

    def schedule_reserved(
        self, when: float, seq: int, callback: Callable[[Event], None]
    ) -> Event:
        """A triggered event firing ``callback`` at ``(when, seq)``.

        ``seq`` is a sequence number the caller reserved earlier
        (``seq = env._seq; env._seq += 1``) for an event it did not arm
        then.  Reserving keeps the relative order of everything else
        scheduled meanwhile, so arming the event late fires it exactly
        where an event armed at reservation time would have fired.  The
        key must still lie ahead of the current one.  A completion at the
        current instant whose reservation is the latest one goes on the
        immediate deque, as :meth:`schedule_at` would have put it; any
        other key goes on the heap, which orders it by ``(when, seq)``.
        """
        now = self.now
        if when < now:
            raise SimulationError(f"schedule_reserved({when}) is in the past (now={now})")
        ev = Event(self)
        ev._state = _TRIGGERED
        ev.callbacks.append(callback)
        if when == now and seq == self._seq - 1:
            self._immediate.append((seq, now, ev))
        else:
            heapq.heappush(self._queue, (when, seq, ev))
        return ev

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    def at_boundary(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the next *phase boundary*.

        A phase boundary is the instant where every event and process
        resume queued at the current timestamp has executed and the
        kernel is about to advance the clock (or return).  At that point
        no more work can be scheduled *at* the current time, so a
        callback sees a complete picture of everything that happened
        "now" — the hook the fluid servicer uses to close a cohort of
        enrollments before computing the phase analytically.

        Callbacks run in registration order, may schedule new events
        (including new immediate work at the current time, which the
        kernel then drains before advancing), and may register further
        boundary callbacks.  Each callback fires exactly once.
        """
        self._boundary.append(callback)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if delay:
            heapq.heappush(self._queue, (self.now + delay, self._seq, event))
        else:
            self._immediate.append((self._seq, self.now, event))
        self._seq += 1

    def _note_failure(self, process: Process, exc: BaseException) -> None:
        if not process._observed:
            self._unhandled.append(exc)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        # Immediate entries were scheduled at a time <= now, and every
        # heap entry lies at >= now, so the deque head (if any) is next.
        if self._immediate:
            return self._immediate[0][1]
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next entry in global (time, seq) order."""
        imm = self._immediate
        queue = self._queue
        if imm:
            head = imm[0]
            if queue:
                top = queue[0]
                # Pop the heap only when it is strictly earlier in the
                # total (time, seq) order than the deque head.
                if top[0] < head[1] or (top[0] == head[1] and top[1] < head[0]):
                    when, self._cur_seq, event = heapq.heappop(queue)
                    self.now = when
                    event._state = _PROCESSED
                    callbacks, event.callbacks = event.callbacks, []
                    for cb in callbacks:
                        cb(event)
                    return
            imm.popleft()
            self.now = head[1]
            self._cur_seq = head[0]
            if len(head) == 3:
                event = head[2]
                event._state = _PROCESSED
                callbacks, event.callbacks = event.callbacks, []
                for cb in callbacks:
                    cb(event)
            else:
                # Direct process resume: no Event was allocated.
                head[3]._step(head[4], head[5])
            return
        if not queue:
            raise SimulationError("step() on empty queue")
        when, self._cur_seq, event = heapq.heappop(queue)
        self.now = when
        event._state = _PROCESSED
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        Events marked :attr:`background` do not count as pending work:
        once they are all that remains, the run returns with ``now`` at
        the last foreground event.  Background events must be armed
        before ``run()`` is entered (re-arming an existing one from its
        own callback is fine); the no-background fast loop below treats
        a *first* background event armed mid-run as foreground.

        Re-raises the first exception from a process nobody waited on, so
        silent failures cannot corrupt an experiment.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        imm = self._immediate
        queue = self._queue
        unhandled = self._unhandled
        if self.background:
            # The *net* number of armed background events must stay
            # constant while run() drains (a background callback may
            # re-arm itself; it must not arm extras or stop re-arming
            # mid-run), so the count can be read once outside the loop.
            background = self.background
            step = self.step
            while imm or len(queue) > background or self._boundary:
                if not imm and self._boundary:
                    # Current-instant work is exhausted: fire the phase
                    # boundary before the clock can advance.  Drain in
                    # place so callbacks registering further boundaries
                    # land on the same (live) list.
                    callbacks = self._boundary[:]
                    del self._boundary[:]
                    self._cur_seq = _NO_ENTRY
                    for cb in callbacks:
                        cb()
                    if unhandled:
                        exc = unhandled[0]
                        unhandled.clear()
                        raise exc
                    continue
                # Immediate entries fire at <= now <= until, so the stop
                # check only matters when the heap is next.
                if not imm and until is not None and queue[0][0] > until:
                    self.now = until
                    self._cur_seq = _NO_ENTRY
                    return
                step()
                if unhandled:
                    exc = unhandled[0]
                    unhandled.clear()
                    raise exc
        else:
            # No background events: the dominant case runs a fully
            # inlined dispatch loop — step()'s body, minus the call, plus
            # a same-time cohort drain on the heap branch.  Once a heap
            # event at time T fires, every further heap entry at exactly
            # T necessarily predates (has a smaller seq than) anything
            # the cohort's callbacks put on the immediate deque, so the
            # whole cohort can be popped in one run without re-comparing
            # against the deque head between events.  Firing order is
            # still exactly the global (time, seq) order.
            pop = heapq.heappop
            popleft = imm.popleft
            boundary = self._boundary  # live alias; drained in place
            while imm or queue or boundary:
                if imm:
                    head = imm[0]
                    if queue:
                        top = queue[0]
                        # Pop the heap only when it is strictly earlier
                        # in the total (time, seq) order than the head.
                        if top[0] < head[1] or (
                            top[0] == head[1] and top[1] < head[0]
                        ):
                            when, self._cur_seq, event = pop(queue)
                            self.now = when
                            event._state = _PROCESSED
                            callbacks, event.callbacks = event.callbacks, []
                            for cb in callbacks:
                                cb(event)
                            if unhandled:
                                exc = unhandled[0]
                                unhandled.clear()
                                raise exc
                            continue
                    popleft()
                    self.now = head[1]
                    self._cur_seq = head[0]
                    if len(head) == 3:
                        event = head[2]
                        event._state = _PROCESSED
                        callbacks, event.callbacks = event.callbacks, []
                        for cb in callbacks:
                            cb(event)
                    else:
                        # Direct process resume: no Event was allocated.
                        head[3]._step(head[4], head[5])
                    if unhandled:
                        exc = unhandled[0]
                        unhandled.clear()
                        raise exc
                    continue
                if boundary:
                    # Phase boundary: the current instant is fully
                    # drained, fire callbacks before advancing the clock.
                    callbacks = boundary[:]
                    del boundary[:]
                    self._cur_seq = _NO_ENTRY
                    for cb in callbacks:
                        cb()
                    if unhandled:
                        exc = unhandled[0]
                        unhandled.clear()
                        raise exc
                    continue
                when = queue[0][0]
                if until is not None and when > until:
                    self.now = until
                    self._cur_seq = _NO_ENTRY
                    return
                self.now = when
                # Same-time cohort: drain every heap event at exactly
                # `when`.  New immediate entries and new heap pushes from
                # the callbacks always sort after the remaining cohort
                # members (larger seq / strictly later time), so no
                # per-event deque comparison is needed.
                while True:
                    _, self._cur_seq, event = pop(queue)
                    event._state = _PROCESSED
                    callbacks, event.callbacks = event.callbacks, []
                    for cb in callbacks:
                        cb(event)
                    if unhandled:
                        exc = unhandled[0]
                        unhandled.clear()
                        raise exc
                    if imm or not queue or queue[0][0] != when:
                        break
        self._cur_seq = _NO_ENTRY
        if until is not None and until > self.now:
            self.now = until
