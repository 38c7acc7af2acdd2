"""The bring-your-own-app harness: run real Python programs on the
simulated machine.

:class:`SimMachine` is an :class:`~repro.core.assembly.Assembly`: it
builds exactly what :class:`repro.core.Experiment` would — machine, PFS
or PPFS with policy presets, optional burst-buffer tier, fault
injection, telemetry, spans, Pablo instrumentation — then executes
*user-written Python callables* against it instead of a built-in
skeleton.  Each registered program gets a compute node, a worker thread,
and a :class:`~repro.vfs.filesystem.SimFileSystem`; the program's
ordinary blocking file calls take simulated time, and the run produces a
standard Pablo :class:`~repro.pablo.trace.Trace` the existing
``characterize``/``compare``/ingest pipeline consumes unchanged.

::

    def program(fs):
        with fs.open("/in/data", "rb") as f:
            data = f.read(65536)
        with fs.open("/out/result", "wb") as f:
            f.write(data)

    sm = SimMachine(scale="small")
    sm.stage("/in/data", b"x" * 65536)
    sm.run_program(program, nodes=range(4))
    result = sm.run()
    print(result.trace.summary_line())
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional

from ..core.assembly import Assembly, ExperimentResult
from ..core.registry import machine_for
from ..machine.paragon import Paragon
from ..pablo.trace import Trace
from ..pfs.costs import CostModel
from ..pfs.filesystem import PFS
from ..ppfs.policies import PPFSPolicies
from ..sim.resources import Barrier
from .bridge import Channel, ProgramCrashed, pump
from .filesystem import NodeExecutor, SimFileSystem

__all__ = ["SimMachine"]


class SimMachine(Assembly):
    """A simulated machine that runs arbitrary Python programs.

    The machine and file system are assembled (see
    :class:`repro.core.assembly.Assembly`) at construction, so files can
    be staged before :meth:`run`.

    Parameters
    ----------
    scale:
        'small', 'paper' or 'production' — picks the machine preset.
    machine_factory:
        Overrides ``scale`` with an explicit :class:`Paragon` builder.
    filesystem, policies, costs, faults, telemetry, burst_buffer, spans, capture_overhead_s:
        The :class:`~repro.core.assembly.Assembly` fields, as in
        :class:`repro.core.Experiment`.
    track_content:
        Store real bytes per file so reads return actual data (the
        default here, unlike the built-in skeletons: user programs
        usually care about contents).  Turn off for huge byte volumes.
    name:
        Application name stamped into the trace.
    """

    def __init__(
        self,
        scale: str = "small",
        machine_factory: Optional[Callable[[], Paragon]] = None,
        filesystem: str = "pfs",
        policies: Optional[PPFSPolicies] = None,
        costs: Optional[CostModel] = None,
        faults: Any = None,
        telemetry: Any = None,
        burst_buffer: Any = None,
        track_content: bool = True,
        capture_overhead_s: float = 0.0,
        name: str = "byoapp",
        spans: Any = None,
    ):
        super().__init__(
            machine_factory=machine_factory or machine_for(scale),
            filesystem=filesystem,
            policies=policies,
            costs=costs,
            faults=faults,
            telemetry=telemetry,
            burst_buffer=burst_buffer,
            spans=spans,
            capture_overhead_s=capture_overhead_s,
        )
        self.name = name
        self.track_content = track_content
        self._result = self.build()
        self.machine: Paragon = self._result.machine
        self.fs: PFS = self._result.fs
        self.instrumented = self.capture(self.fs, Trace(application=name))
        self._programs: dict[int, Callable[[SimFileSystem], Any]] = {}
        self._ran = False

    def build_fs(self, machine: Paragon) -> PFS:
        fs = super().build_fs(machine)
        fs.track_content = self.track_content
        return fs

    # -- setup ---------------------------------------------------------------
    def stage(self, path: str, data: bytes = b"", size: Optional[int] = None) -> None:
        """Pre-create ``path`` before the run (no simulated cost): real
        ``data`` when given, else a hole of ``size`` bytes."""
        f = self.fs.ensure(path, size=size if size is not None else len(data))
        if data and f._content is not None:
            f.write_content(0, data)
            f.size = max(f.size, len(data))

    def mark_burst_tier(self, path: str, enabled: bool = True) -> None:
        """Route ``path``'s writes through the burst-buffer log (must be
        staged or created first; harmless without a buffer)."""
        self.fs.mark_burst_tier(path, enabled)

    def run_program(
        self,
        fn: Callable[[SimFileSystem], Any],
        node: int = 0,
        nodes: Optional[Iterable[int]] = None,
    ) -> "SimMachine":
        """Register ``fn`` to run on ``node`` (or on each of ``nodes`` —
        SPMD style, one thread per node).  ``fn`` receives that node's
        :class:`SimFileSystem` and runs unmodified Python.  Returns self
        for chaining."""
        if self._ran:
            raise RuntimeError("SimMachine.run() already executed")
        if not callable(fn):
            raise TypeError(f"program must be callable, got {type(fn).__name__}")
        targets = [node] if nodes is None else list(nodes)
        if not targets:
            raise ValueError("nodes must be non-empty")
        limit = self.machine.config.compute_nodes
        for n in targets:
            n = int(n)
            if not 0 <= n < limit:
                raise ValueError(f"node {n} outside machine's {limit} compute nodes")
            if n in self._programs:
                raise ValueError(f"node {n} already has a program")
            self._programs[n] = fn
        return self

    # -- execution -------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> ExperimentResult:
        """Execute every registered program to completion; returns the
        result with the shared Pablo trace."""
        if self._ran:
            raise RuntimeError("SimMachine.run() already executed")
        if not self._programs:
            raise RuntimeError("no programs registered; call run_program() first")
        self._ran = True
        env = self.machine.env
        barrier = Barrier(env, len(self._programs))
        channels: list[Channel] = []
        threads: list[threading.Thread] = []
        procs = []
        for node in sorted(self._programs):
            fn = self._programs[node]
            channel = Channel()
            channels.append(channel)
            executor = NodeExecutor(self.fs, node, barrier, self.track_content)
            sfs = SimFileSystem(
                channel, node, len(self._programs), self.track_content
            )
            procs.append(
                env.process(
                    pump(channel, executor.dispatch), name=f"{self.name}.n{node}"
                )
            )
            threads.append(
                threading.Thread(
                    target=_thread_main,
                    args=(channel, fn, sfs),
                    name=f"{self.name}.n{node}",
                    daemon=True,
                )
            )

        self.instrumented.trace.nodes = max(
            self.instrumented.trace.nodes, len(self._programs)
        )
        for t in threads:
            t.start()
        try:
            env.run(until=until)
        except ProgramCrashed as exc:
            # Surface the user program's own exception, not the wrapper
            # the bridge uses to carry it across threads.
            if exc.__cause__ is not None:
                raise exc.__cause__ from None
            raise
        finally:
            # Whatever happened, no channel may leave its user thread
            # blocked: release stragglers, then reap the threads.
            stuck = RuntimeError("simulation ended before this operation completed")
            for channel in channels:
                channel.abort(stuck)
            for t in threads:
                t.join(timeout=10.0)

        alive = [p.name for p in procs if p.is_alive]
        if alive:
            raise RuntimeError(
                f"programs never finished (deadlock? barrier mismatch?): {alive}"
            )
        for p in procs:
            if not p.ok:
                exc = p.value
                if isinstance(exc, ProgramCrashed) and exc.__cause__ is not None:
                    raise exc.__cause__
                raise exc

        self._result.traces = {self.name: self.instrumented.trace}
        return self.finish(self._result)


def _thread_main(channel: Channel, fn, sfs: SimFileSystem) -> None:
    """Worker-thread entry: run the user program, then report its end."""
    try:
        fn(sfs)
    except BaseException as exc:  # noqa: BLE001 - reported across the bridge
        channel.finish(exc=exc)
    else:
        channel.finish()
