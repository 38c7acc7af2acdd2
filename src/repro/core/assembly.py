"""Run assembly: the one place a run's machine, file system and optional
layers are built, captured and finished.

:class:`repro.core.Experiment` (and through it replay, campaigns and the
CLI) and :class:`repro.vfs.SimMachine` are all an :class:`Assembly`, so
every run is built, instrumented and closed out the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..apps.workloads import paper_machine
from ..machine.paragon import Paragon
from ..pablo.capture import InstrumentedPFS
from ..pablo.trace import Trace
from ..pfs.costs import CostModel
from ..pfs.filesystem import PFS
from ..ppfs.policies import PPFSPolicies
from ..ppfs.server import PPFS

__all__ = [
    "FILESYSTEMS",
    "Assembly",
    "ExperimentResult",
    "normalize_telemetry",
    "normalize_burst_buffer",
    "normalize_spans",
]


def normalize_telemetry(spec: Any) -> Any:
    """Normalize a telemetry field (None/bool/cadence/Telemetry) into a
    :class:`repro.telemetry.Telemetry` or None."""
    if spec is None or spec is False:
        return None
    # Imported here so telemetry-free builds never touch the subsystem.
    from ..telemetry import Telemetry

    if isinstance(spec, Telemetry):
        return spec
    if spec is True:
        return Telemetry()
    return Telemetry(cadence_s=float(spec))


def normalize_spans(spec: Any) -> Any:
    """Normalize a spans field (None/bool/SpanRecorder) into a
    :class:`repro.spans.SpanRecorder` or None."""
    if spec is None or spec is False:
        return None
    # Imported here so spans-free builds never touch the subsystem.
    from ..spans import SpanRecorder

    if isinstance(spec, SpanRecorder):
        return spec
    return SpanRecorder()


def normalize_burst_buffer(spec: Any) -> Any:
    """Normalize a burst-buffer field (None/bool/bytes/params/dict) into
    :class:`repro.machine.BurstBufferParams` or None."""
    if spec is None or spec is False:
        return None
    from ..machine.burstbuffer import BurstBufferParams

    if isinstance(spec, BurstBufferParams):
        return spec
    if spec is True:
        return BurstBufferParams()
    if isinstance(spec, dict):
        return BurstBufferParams(**spec)
    return BurstBufferParams(capacity_bytes=int(spec))


#: The file systems an assembly can build.
FILESYSTEMS = ("pfs", "ppfs")


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    machine: Paragon
    fs: PFS
    traces: dict[str, Trace]
    app: Any = None
    #: The FaultInjector when the run injected faults (None otherwise).
    injector: Any = None
    #: The finalized Telemetry runtime when the run sampled metrics
    #: (None otherwise).
    telemetry: Any = None
    #: The finalized SpanRecorder when the run recorded causal spans
    #: (None otherwise).
    spans: Any = None

    @property
    def trace(self) -> Trace:
        """The single trace (single-program experiments)."""
        if len(self.traces) != 1:
            raise ValueError(f"experiment produced {len(self.traces)} traces; pick one")
        return next(iter(self.traces.values()))

    @property
    def makespan_s(self) -> float:
        """Simulated clock when the run ended."""
        return float(self.machine.env.now)


@dataclass(kw_only=True, eq=False)
class Assembly:
    """How a run's machine and file system are composed.

    Parameters
    ----------
    machine_factory:
        Builds the machine; defaults to the paper's 128-node partition.
    filesystem:
        'pfs' (Intel PFS model) or 'ppfs' (policy engine).
    policies:
        PPFS policies (filesystem='ppfs' only).
    costs:
        Cost-model override (None = calibrated defaults).
    capture_overhead_s:
        Per-call Pablo instrumentation perturbation (default zero).
    observers:
        Real-time event consumers added to every captured program.
    faults:
        Optional :class:`repro.faults.FaultPlan`; a None or empty plan
        injects nothing and leaves the run byte-identical to a fault-free
        build.
    telemetry:
        Optional live observability: ``True`` (default cadence), a
        cadence in simulated seconds, or a prepared
        :class:`repro.telemetry.Telemetry`.  ``None`` (the default)
        installs nothing, and the hot paths pay one attribute check.
        Sampling is read-only, so traces are byte-identical either way.
    burst_buffer:
        Optional host-side burst-buffer tier: ``True`` (default
        parameters), a capacity in bytes, a
        :class:`repro.machine.BurstBufferParams`, or a dict of its
        fields.  ``None`` (the default) attaches nothing — the data path
        then pays one attribute check, and traces stay golden.
    fidelity:
        ``'event'`` (the default: every request is a discrete event,
        byte-identical traces) or ``'fluid'`` (regular phases priced in
        closed form by :class:`repro.sim.fluid.FluidServicer`, falling
        back to discrete wherever policies interact — approximate by
        contract, see ``docs/PERFORMANCE.md``).  Fault plans force
        event fidelity: no servicer is attached when an injector runs.
    spans:
        Optional causal request tracing: ``True`` or a prepared
        :class:`repro.spans.SpanRecorder`.  ``None`` (the default)
        installs nothing — every hook site then pays one attribute
        check.  Recording is read-only, so traces are byte-identical
        either way (the golden-hash tests enforce it).
    """

    machine_factory: Callable[[], Paragon] = paper_machine
    filesystem: str = "pfs"
    policies: Optional[PPFSPolicies] = None
    costs: Optional[CostModel] = None
    capture_overhead_s: float = 0.0
    observers: list = field(default_factory=list)
    faults: Any = None
    telemetry: Any = None
    burst_buffer: Any = None
    fidelity: str = "event"
    spans: Any = None

    def __post_init__(self) -> None:
        if self.filesystem not in FILESYSTEMS:
            raise ValueError(f"filesystem must be pfs/ppfs, got {self.filesystem!r}")
        if self.policies is not None and self.filesystem != "ppfs":
            raise ValueError("policies require filesystem='ppfs'")
        self.fidelity = self.fidelity or "event"
        if self.fidelity not in ("event", "fluid"):
            raise ValueError(
                f"fidelity must be event/fluid, got {self.fidelity!r}"
            )

    def build_fs(self, machine: Paragon) -> PFS:
        """The configured (uninstrumented) file system."""
        if self.filesystem == "ppfs":
            return PPFS(machine, policies=self.policies, costs=self.costs)
        return PFS(machine, costs=self.costs)

    def build(self) -> ExperimentResult:
        """Build and wire the run, in order: machine → burst buffer →
        file system (:meth:`build_fs`) → spans attach → fault injector →
        fluid servicer → telemetry.  Returns the run's result record with
        no traces yet (see :meth:`finish`)."""
        telemetry = normalize_telemetry(self.telemetry)
        profiler = telemetry.profiler if telemetry is not None else None

        if profiler is not None:
            profiler.start("build.machine")
        machine = self.machine_factory()
        bb_params = normalize_burst_buffer(self.burst_buffer)
        if bb_params is not None and machine.burstbuffer is None:
            # Attach the tier before the file system is built (the fs
            # picks up machine.burstbuffer in its constructor).
            from ..machine.burstbuffer import BurstBuffer

            machine.burstbuffer = BurstBuffer(machine.env, bb_params)
        if profiler is not None:
            profiler.stop("build.machine")
            profiler.start("build.fs")
        fs = self.build_fs(machine)
        if profiler is not None:
            profiler.stop("build.fs")

        recorder = normalize_spans(self.spans)
        if recorder is not None:
            # Attach before the injector starts so its FaultRecorder
            # picks up the span handle from machine.spans.
            recorder.attach(machine, fs)

        injector = None
        if self.faults is not None and not self.faults.empty:
            # Imported here so fault-free builds never touch the subsystem.
            from ..faults.inject import FaultInjector

            injector = FaultInjector(machine, self.faults, fs=fs).start()

        if self.fidelity == "fluid" and injector is None:
            # Imported here so event-fidelity builds never touch the
            # subsystem.  An active injector forces event fidelity: the
            # closed form cannot price a machine whose health changes.
            from ..sim.fluid import FluidServicer

            fs.fluid = FluidServicer(fs)

        if telemetry is not None:
            telemetry.attach(machine, fs)
            telemetry.start()
            profiler.start("simulate")
        return ExperimentResult(
            machine, fs, {}, injector=injector, telemetry=telemetry, spans=recorder
        )

    def capture(self, fs: PFS, trace: Optional[Trace] = None) -> InstrumentedPFS:
        """The capture factory: ``fs`` instrumented with this run's
        overhead and observers (one call per traced program)."""
        instrumented = InstrumentedPFS(fs, trace=trace, overhead_s=self.capture_overhead_s)
        for obs in self.observers:
            instrumented.add_observer(obs)
        return instrumented

    def finish(self, result: ExperimentResult) -> ExperimentResult:
        """Close out a built run once its programs have run: append the
        fault recorder's FAULT / RETRY / DEGRADED rows to every trace (so
        each saved trace is self-describing about the faults it ran
        under), finalize telemetry and seal spans."""
        injector = result.injector
        if injector is not None:
            injector.finalize()
            rows = injector.recorder.rows
            if rows:
                for trace in result.traces.values():
                    trace.extend(rows)
        if result.telemetry is not None:
            result.telemetry.profiler.stop("simulate")
            result.telemetry.finalize()
        if result.spans is not None:
            result.spans.seal(result.traces)
        return result
