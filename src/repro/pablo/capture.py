"""The Pablo capture layer: one sink per file system.

Pablo brackets every I/O call with timestamps (§3.1) and records one
event per call.  Here the bracketing lives in the file system itself:
each :class:`repro.pfs.PFS` op (and each of PPFS's own read, write and
seek paths) stamps its entry time and, at its single exit, hands one
``(t0, node, op, file_id, offset, nbytes, duration)`` row to the file
system's **sink** — as do the fluid solver's closed-form phases.
:class:`InstrumentedPFS` is only the configuration of that sink: it
binds the sink to a :class:`~repro.pablo.trace.Trace` (the "detailed
event trace" path) plus any registered observers (Pablo's "real-time
data reduction" path, :mod:`repro.pablo.reductions`).  With no
observers the sink is ``trace.add`` itself.

A fixed, configurable per-call instrumentation overhead models capture
perturbation: each op yields it before its own work, so it lands inside
the op's row (defaults to zero — the paper reports the overhead is
modest).

An :class:`InstrumentedPFS` stands in for the file system it captures:
attribute access passes through, so an application's ``fs.read(...)``
runs the file system's own op.  One file system has one live capture at
a time; a new capture replaces the previous one.
"""

from __future__ import annotations

from types import MethodType
from typing import Optional, Protocol

from .events import Op
from .trace import Trace

__all__ = ["InstrumentedPFS", "EventObserver"]


class EventObserver(Protocol):
    """Anything that consumes events in real time (e.g. reductions)."""

    def observe(
        self,
        timestamp: float,
        node: int,
        op: Op,
        file_id: int,
        offset: int,
        nbytes: int,
        duration: float,
    ) -> None:  # pragma: no cover - protocol
        ...


class InstrumentedPFS:
    """Captures one trace event per application I/O call on ``fs``.

    ``fs`` is a :class:`repro.pfs.PFS` (or a facade over one, such as an
    :class:`repro.archive.HSM`); ``overhead_s`` is the per-call capture
    perturbation.
    """

    def __init__(self, fs, trace: Optional[Trace] = None, overhead_s: float = 0.0):
        if overhead_s < 0:
            raise ValueError(f"overhead_s must be >= 0, got {overhead_s}")
        self.fs = fs
        self.trace = trace if trace is not None else Trace()
        self.overhead_s = overhead_s
        self._observers: list[EventObserver] = []
        fs.attach_capture(self.trace.add, self.trace.file_names, overhead_s)

    def add_observer(self, observer: EventObserver) -> None:
        """Attach a real-time reduction/consumer."""
        self._observers.append(observer)
        self.fs.attach_capture(self._emit, self.trace.file_names, self.overhead_s)

    def _emit(self, t0, node, op, file_id, offset, nbytes, duration) -> None:
        self.trace.add(t0, node, op, file_id, offset, nbytes, duration)
        for obs in self._observers:
            obs.observe(t0, node, op, file_id, offset, nbytes, duration)

    def __getattr__(self, name):
        # Ops, state queries and hooks are the file system's own.  Methods
        # are bound here on first use, so an op call costs one lookup.
        if name == "fs":  # not set yet (copy and unpickle probe first)
            raise AttributeError(name)
        value = getattr(self.fs, name)
        if isinstance(value, MethodType):
            setattr(self, name, value)
        return value
