"""Run assembly: the one place a run's machine, file system and optional
layers are built, captured and finished.

:class:`repro.core.Experiment` (and through it replay, campaigns and the
CLI) and :class:`repro.vfs.SimMachine` are all an :class:`Assembly`, so
every run is built, instrumented and closed out the same way.
"""

from __future__ import annotations

import importlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from ..apps.workloads import paper_machine
from ..machine.paragon import Paragon
from ..pablo.capture import InstrumentedPFS
from ..pablo.trace import Trace
from ..pfs.costs import CostModel
from ..pfs.filesystem import PFS
from ..ppfs.policies import PPFSPolicies
from ..ppfs.server import PPFS

__all__ = [
    "FIDELITIES",
    "FILESYSTEMS",
    "Assembly",
    "ExperimentResult",
    "burst_buffer_capacity",
    "normalize_spans",
    "normalize_telemetry",
    "telemetry_cadence",
]

#: The file systems an assembly can build.
FILESYSTEMS = ("pfs", "ppfs")

#: The execution fidelities an assembly can run at.
FIDELITIES = ("event", "fluid")


def _off(spec: Any) -> bool:
    """None, False and 0 switch an optional layer off."""
    return spec is None or (isinstance(spec, numbers.Number) and spec == 0)


def _amount(option: str, unit: str, spec: Any, kind: type) -> Any:
    """The one rule for an optional layer's size: off is None, True (the
    layer's default) and a finite positive ``kind`` are kept, and anything
    else raises ValueError."""
    if _off(spec):
        return None
    if spec is True or (
        isinstance(spec, kind) and not isinstance(spec, bool) and 0 < spec < math.inf
    ):
        return spec
    raise ValueError(
        f"{option} must be a positive {unit}, True (the default) or 0/None (off); got {spec!r}"
    )


def _telemetry(spec: Any) -> Any:
    cadence = _amount("telemetry", "cadence in simulated seconds", spec, numbers.Real)
    return cadence if cadence is None or cadence is True else float(cadence)


def telemetry_cadence(spec: Any) -> Optional[float]:
    """The sampling cadence, in simulated seconds, a telemetry value
    selects; None when telemetry is off."""
    cadence = _telemetry(spec)
    if cadence is True:
        # Imported here so telemetry-free builds never touch the subsystem.
        from ..telemetry import DEFAULT_CADENCE_S

        return DEFAULT_CADENCE_S
    return cadence


def burst_buffer_capacity(spec: Any) -> Optional[int]:
    """The log capacity, in bytes, a burst-buffer value selects; None when
    no tier is attached."""
    capacity = _amount("burst_buffer", "capacity in bytes", spec, numbers.Integral)
    if capacity is True:
        from ..machine.burstbuffer import BurstBufferParams

        return BurstBufferParams().capacity_bytes
    return None if capacity is None else int(capacity)


def _burst_buffer_params(spec: Any) -> Any:
    if not isinstance(spec, dict):
        capacity = burst_buffer_capacity(spec)
        if capacity is None:
            return None
        spec = {"capacity_bytes": capacity}
    from ..machine.burstbuffer import BurstBufferParams

    return BurstBufferParams(**spec)


def _spans(spec: Any) -> Optional[bool]:
    if _off(spec) or spec is True:
        return spec or None
    raise ValueError(f"spans must be True or False/None (off); got {spec!r}")


def _option(spec: Any, module: str, prepared: str, check: Callable[[Any], Any]) -> Any:
    """``spec`` itself when it is a prepared ``module.prepared`` object, else
    ``check(spec)``.  The module is imported only for values that are not
    plain, so a run without the layer never loads it."""
    if spec is None or isinstance(spec, (numbers.Number, str)):
        return check(spec)
    if isinstance(spec, getattr(importlib.import_module(module, __package__), prepared)):
        return spec
    return check(spec)


def normalize_telemetry(spec: Any) -> Any:
    """The :class:`repro.telemetry.Telemetry` runtime a telemetry value
    selects (a fresh one for a cadence), or None."""
    if _off(spec):
        return None
    from ..telemetry import Telemetry

    return spec if isinstance(spec, Telemetry) else Telemetry(cadence_s=telemetry_cadence(spec))


def normalize_spans(spec: Any) -> Any:
    """The :class:`repro.spans.SpanRecorder` a spans value selects (a fresh
    one for True), or None."""
    if _off(spec):
        return None
    # Imported here so spans-free builds never touch the subsystem.
    from ..spans import SpanRecorder

    return spec if isinstance(spec, SpanRecorder) else SpanRecorder()


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

    Every field is checked and normalized once, when the assembly is made
    (ValueError on a bad value).  The optional layers share one rule: None,
    False and 0 mean off, True means the layer's default, and a finite
    positive number is the value.  Run specs and the CLI defer to it.

    Parameters
    ----------
    machine_factory:
        Builds the machine; defaults to the paper's 128-node partition.
    filesystem:
        'pfs' (Intel PFS model) or 'ppfs' (policy engine).
    policies:
        PPFS policies or a preset name (see :meth:`PPFSPolicies.presets`);
        filesystem='ppfs' only.
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
        :class:`repro.telemetry.Telemetry`; a cadence is normalized to a
        float.  ``None`` (the default)
        installs nothing, and the hot paths pay one attribute check.
        Sampling is read-only, so traces are byte-identical either way.
    burst_buffer:
        Optional host-side burst-buffer tier: ``True`` (default
        parameters), a capacity in bytes, a
        :class:`repro.machine.BurstBufferParams`, or a dict of its
        fields; normalized to the params.  ``None`` (the default)
        attaches nothing — the data path then pays one attribute check,
        and traces stay golden.
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
    policies: Union[PPFSPolicies, str, None] = None
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
            raise ValueError(f"filesystem must be one of {FILESYSTEMS}, got {self.filesystem!r}")
        if self.policies is not None:
            if self.filesystem != "ppfs":
                raise ValueError(
                    f"policies require filesystem='ppfs', got filesystem={self.filesystem!r}"
                )
            if isinstance(self.policies, str):
                self.policies = PPFSPolicies.from_name(self.policies)
        self.fidelity = self.fidelity or "event"
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}")
        self.telemetry = _option(self.telemetry, "..telemetry", "Telemetry", _telemetry)
        self.burst_buffer = _option(
            self.burst_buffer, "..machine.burstbuffer", "BurstBufferParams", _burst_buffer_params
        )
        self.spans = _option(self.spans, "..spans", "SpanRecorder", _spans)

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
        bb_params = self.burst_buffer
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
        """The capture factory: installs a capture with this run's
        overhead and observers on ``fs`` (one call per traced program;
        each replaces the last)."""
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
