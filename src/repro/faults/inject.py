"""Fault injection: drive a :class:`FaultPlan` against a live machine.

The injector is a set of small simulation processes — one per scheduled
fault — that sleep until their fault time and then flip the machine-layer
state: :meth:`Raid3Array.fail_disk` / :meth:`set_slow`,
:meth:`IONode.crash` / :meth:`restart`, :meth:`IONode.set_drop`.  Hard
disk failures additionally run the *rebuild* loop, reading the lost
disk's contents back through the node's own request queue so
reconstruction traffic competes with foreground I/O on the arm — the
bandwidth tax a real degraded array pays.

Alongside the state flips, a :class:`FaultRecorder` accumulates
resilience trace rows (``Op.FAULT`` / ``Op.RETRY`` / ``Op.DEGRADED``)
that the experiment appends to every application trace, making saved
traces self-describing: ``repro faults report TRACE`` reconstructs the
whole story offline.

Determinism: every fault fires at a plan-fixed simulated time, backoff
jitter draws from the ``faults.backoff`` stream, and drop decisions from
``faults.drop.<ionode>`` streams — all spawned from the machine seed, so
seed + plan fully determine the trace.
"""

from __future__ import annotations

from typing import Optional

from ..pablo.events import Op
from ..pfs.errors import TransientIOError
from ..pfs.retry import install_retry
from ..sim.core import Interrupt, Timeout
from .plan import (
    BufferFault,
    DiskFailure,
    FaultKind,
    FaultPlan,
    NodeOutage,
    RequestDrops,
)

__all__ = ["FaultRecorder", "FaultInjector"]


class FaultRecorder:
    """Accumulates resilience rows in the trace-event tuple shape.

    Rows are ``(timestamp, node, op, file_id, offset, nbytes, duration)``
    — the :data:`repro.pablo.events.EVENT_DTYPE` layout — with the
    field reuse documented on :class:`~repro.pablo.events.Op`:
    FAULT stores the :class:`FaultKind` code in ``offset``; RETRY stores
    the re-issued chunk's offset/nbytes and the wait in ``duration``;
    DEGRADED stores the degraded interval length in ``duration``.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        #: Span recorder handle (wired by FaultInjector.start when the
        #: experiment records spans): fault flips become zero-length
        #: ``fault.<kind>`` markers, degraded windows become intervals.
        self.spans = None

    def fault(self, ts: float, ionode: int, kind: FaultKind) -> None:
        self.rows.append((ts, ionode, int(Op.FAULT), -1, int(kind), 0, 0.0))
        if self.spans is not None:
            self.spans.add(f"fault.{kind.name.lower()}", ionode, ts, ts)

    def retry(
        self, ts: float, node: int, file_id: int, offset: int, nbytes: int,
        wait_s: float,
    ) -> None:
        self.rows.append((ts, node, int(Op.RETRY), file_id, offset, nbytes, wait_s))

    def degraded(self, start_ts: float, ionode: int, seconds: float) -> None:
        self.rows.append(
            (start_ts, ionode, int(Op.DEGRADED), -1, 0, 0, seconds)
        )
        if self.spans is not None:
            self.spans.add("fault.degraded", ionode, start_ts, start_ts + seconds)


class FaultInjector:
    """Binds a plan to a machine (and optionally a file system).

    Also serves as the *retry domain* for :func:`repro.pfs.retry.
    install_retry`: it carries the plan's :class:`RetryPolicy`, the
    deterministic backoff stream, and the recorder.
    """

    def __init__(
        self,
        machine,
        plan: FaultPlan,
        fs=None,
        recorder: Optional[FaultRecorder] = None,
    ):
        self.machine = machine
        self.env = machine.env
        self.plan = plan
        self.fs = fs
        self.policy = plan.retry
        self.recorder = recorder if recorder is not None else FaultRecorder()
        self.backoff_rng = machine.rngs.stream("faults.backoff")
        self._degraded_since: dict[int, float] = {}
        self._procs: list = []

    def start(self) -> "FaultInjector":
        """Validate the plan, install retry, spawn the fault processes.

        A no-op for an empty plan: nothing is installed and the run stays
        byte-identical to a fault-free build.
        """
        plan = self.plan
        plan.validate(len(self.machine.ionodes))
        self.recorder.spans = getattr(self.machine, "spans", None)
        if plan.empty:
            return self
        if plan.buffer_faults and getattr(self.machine, "burstbuffer", None) is None:
            raise ValueError(
                "plan schedules burst-buffer faults but the machine has no "
                "burst buffer (enable one via ParagonConfig.burst_buffer or "
                "Experiment.burst_buffer)"
            )
        # Faulted runs use the scalar queue throughout: eager service
        # precomputation cannot see rate changes (degraded arrays, slow
        # disks) that land between a request's arrival and its service.
        for ion in self.machine.ionodes:
            ion._disable_eager()
        if self.fs is not None:
            install_retry(self.fs, self)
        env = self.env
        for df in plan.disk_failures:
            self._procs.append(
                env.process(self._disk_failure(df), name=f"fault.disk.{df.ionode}")
            )
        for outage in plan.outages:
            self._procs.append(
                env.process(self._outage(outage), name=f"fault.outage.{outage.ionode}")
            )
        for i, drops in enumerate(plan.drops):
            self._procs.append(
                env.process(self._drop_window(drops), name=f"fault.drops.{i}")
            )
        for i, bf in enumerate(plan.buffer_faults):
            self._procs.append(
                env.process(self._buffer_fault(bf), name=f"fault.bb.{i}")
            )
        return self

    # -- fault processes -----------------------------------------------------
    def _disk_failure(self, df: DiskFailure):
        env = self.env
        ion = self.machine.ionodes[df.ionode]
        array = ion.array
        rec = self.recorder
        try:
            yield Timeout(env, df.time_s)
        except Interrupt:
            return
        if df.mode == "fail_slow":
            array.set_slow(df.slow_factor)
            rec.fault(env.now, df.ionode, FaultKind.DISK_FAILSLOW)
            self._degraded_since[df.ionode] = env.now
            try:
                yield Timeout(env, df.duration_s)
            except Interrupt:
                return
            array.clear_slow()
            rec.fault(env.now, df.ionode, FaultKind.DISK_FAILSLOW_END)
            self._close_degraded(df.ionode)
            return
        # Hard failure: degrade, reject during reconfiguration, rebuild.
        array.fail_disk()
        ion.begin_reconfig(array.params.reconfig_s)
        rec.fault(env.now, df.ionode, FaultKind.DISK_FAIL)
        self._degraded_since[df.ionode] = env.now
        try:
            yield Timeout(env, df.rebuild_delay_s)
            array.start_rebuild()
            rec.fault(env.now, df.ionode, FaultKind.REBUILD_START)
            # Reconstruction traffic: sequential reads of the lost disk's
            # share, through the node's queue (competing with foreground
            # requests for the arm).
            remaining = df.rebuild_bytes
            offset = 0
            while remaining > 0:
                nbytes = min(df.rebuild_chunk_bytes, remaining)
                try:
                    yield ion.submit(offset, nbytes, False, 0.0)
                except TransientIOError:
                    # The rebuild source node itself is briefly unavailable
                    # (e.g. an overlapping outage); wait and re-read.
                    yield Timeout(env, 0.1)
                    continue
                offset += nbytes
                remaining -= nbytes
        except Interrupt:
            return
        array.complete_rebuild()
        rec.fault(env.now, df.ionode, FaultKind.REBUILD_DONE)
        self._close_degraded(df.ionode)

    def _outage(self, outage: NodeOutage):
        env = self.env
        ion = self.machine.ionodes[outage.ionode]
        rec = self.recorder
        try:
            yield Timeout(env, outage.start_s)
        except Interrupt:
            return
        ion.crash()
        rec.fault(env.now, outage.ionode, FaultKind.NODE_CRASH)
        try:
            yield Timeout(env, outage.duration_s)
        except Interrupt:
            return
        ion.restart()
        rec.fault(env.now, outage.ionode, FaultKind.NODE_RESTART)

    def _drop_window(self, drops: RequestDrops):
        env = self.env
        rec = self.recorder
        targets = (
            range(len(self.machine.ionodes))
            if drops.ionodes is None
            else drops.ionodes
        )
        try:
            yield Timeout(env, drops.start_s)
        except Interrupt:
            return
        for i in targets:
            self.machine.ionodes[i].set_drop(
                drops.probability,
                self.machine.rngs.stream(f"faults.drop.{i}"),
                drops.detect_timeout_s,
            )
            rec.fault(env.now, i, FaultKind.DROP_START)
        if drops.duration_s is None:
            return
        try:
            yield Timeout(env, drops.duration_s)
        except Interrupt:
            return
        for i in targets:
            self.machine.ionodes[i].clear_drop()
            rec.fault(env.now, i, FaultKind.DROP_END)

    def _buffer_fault(self, bf: BufferFault):
        env = self.env
        bb = self.machine.burstbuffer
        rec = self.recorder
        try:
            yield Timeout(env, bf.time_s)
        except Interrupt:
            return
        bb.drain_fail()
        # Buffer faults are machine-wide; the drain node stands in for the
        # node slot (the trace dtype has no signed sentinel).
        rec.fault(env.now, bb.params.drain_node, FaultKind.BB_DRAIN_FAIL)
        if bf.duration_s is None:
            return
        try:
            yield Timeout(env, bf.duration_s)
        except Interrupt:
            return
        bb.drain_resume()
        rec.fault(env.now, bb.params.drain_node, FaultKind.BB_DRAIN_RESUME)

    # -- lifecycle -----------------------------------------------------------
    def _close_degraded(self, ionode: int) -> None:
        start = self._degraded_since.pop(ionode, None)
        if start is not None:
            self.recorder.degraded(start, ionode, self.env.now - start)

    def finalize(self) -> None:
        """Close still-open degraded intervals at the current time.

        Call after the application finishes (a rebuild may outlive it).
        """
        for ionode in list(self._degraded_since):
            self._close_degraded(ionode)

    def stop(self) -> None:
        """Interrupt every still-running fault process.

        Lets a caller end the campaign early without waiting for pending
        fault timers (e.g. a rebuild scheduled past the app's finish).
        """
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("injector stopped")
        self._procs = [p for p in self._procs if p.is_alive]
