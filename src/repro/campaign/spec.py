"""Declarative campaign specifications and content-addressed run hashes.

A :class:`CampaignSpec` names a parameter grid — applications, scales,
file systems, PPFS policy presets, seeds, config overrides — and expands
it into concrete :class:`RunSpec` records.  Each run spec canonicalizes
to a stable JSON form whose SHA-256 digest is the run's *content hash*:
two specs with the same parameters hash identically regardless of how or
where they were built, which is what lets the result cache make repeat
campaigns incremental.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional, Sequence

from ..core.assembly import burst_buffer_capacity, telemetry_cadence
from ..core.experiment import Experiment
from ..core.registry import APPLICATIONS, MACHINES, machine_for, scaled_experiment
from ..faults.plan import FaultPlan

__all__ = ["RunSpec", "CampaignSpec", "SPEC_VERSION"]

#: Bumped whenever the canonical form changes meaning; part of the hash,
#: so stale cache entries from an older scheme are never reused.
SPEC_VERSION = 1

#: Override values must survive a JSON round trip unchanged.
_OVERRIDE_TYPES = (bool, int, float, str)


def _freeze_overrides(overrides: Any) -> tuple[tuple[str, Any], ...]:
    """Normalize a dict/pair-iterable of config overrides to a sorted tuple."""
    items = dict(overrides or {}).items()
    for key, value in items:
        if not isinstance(key, str) or not key:
            raise ValueError(f"override keys must be non-empty strings, got {key!r}")
        if not isinstance(value, _OVERRIDE_TYPES):
            raise ValueError(
                f"override {key}={value!r} is not a JSON scalar "
                f"({'/'.join(t.__name__ for t in _OVERRIDE_TYPES)})"
            )
    return tuple(sorted(items))


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation run.

    Every field is a primitive, so the record pickles cheaply across the
    worker-pool boundary and serializes losslessly into cache metadata.
    The spec adds only identity to a run; what each option accepts and
    means is :class:`~repro.core.assembly.Assembly`'s, and an invalid
    value (overrides included) raises ValueError at construction.

    Parameters
    ----------
    app:
        'escat', 'render', 'htf', 'checkpoint' or 'trace'.
    scale:
        'paper' (the Tables 1-6 runs), 'small' (structure-preserving
        miniatures) or 'production' (the 2048-node partition).
    fs:
        'pfs' or 'ppfs'.
    policy:
        PPFS policy preset name (see :meth:`PPFSPolicies.presets`), or
        None for the preset-free default.  Requires ``fs='ppfs'``.
    seed:
        Machine RNG seed; None keeps each scale's calibrated default.
    overrides:
        Workload-config field overrides, applied with
        :func:`dataclasses.replace` on the app's config record.
    faults:
        Optional fault plan — a :class:`repro.faults.FaultPlan` or its
        JSON text; stored as canonical JSON so the record stays a
        picklable primitive.  An empty plan normalizes to None (it
        produces the identical trace, so it must hash identically).
    telemetry, burst_buffer, fidelity, spans:
        The :class:`~repro.core.assembly.Assembly` fields of the same
        names, stored as a cadence in seconds, a capacity in bytes,
        ``'fluid'`` and ``True``.  An off value, and the default
        ``'event'``, normalize to None, so the spec keeps the hash of one
        that never mentions the axis.
    trace:
        Path to the ingested trace file (``app='trace'`` only, and
        required there).  The run hash covers the file's *content*
        digest, not the path — the same records cached under two
        filenames dedupe, and editing the file invalidates the cache.
    """

    app: str
    scale: str = "small"
    fs: str = "pfs"
    policy: Optional[str] = None
    seed: Optional[int] = None
    overrides: tuple[tuple[str, Any], ...] = ()
    faults: Optional[Any] = None
    telemetry: Optional[float] = None
    burst_buffer: Optional[int] = None
    fidelity: Optional[str] = None
    spans: Optional[bool] = None
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        if self.app not in APPLICATIONS:
            raise ValueError(f"unknown app {self.app!r}; pick from {sorted(APPLICATIONS)}")
        machine_for(self.scale)  # raises on an unknown scale
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int or None, got {self.seed!r}")
        if self.policy is not None and not isinstance(self.policy, str):
            raise ValueError(f"policy must be a preset name or None, got {self.policy!r}")
        object.__setattr__(self, "overrides", _freeze_overrides(self.overrides))
        if self.faults is not None:
            plan = (
                FaultPlan.from_json(self.faults)
                if isinstance(self.faults, str)
                else self.faults
            )
            if not isinstance(plan, FaultPlan):
                raise ValueError(
                    f"faults must be a FaultPlan or its JSON, got {type(plan).__name__}"
                )
            object.__setattr__(
                self, "faults", None if plan.empty else plan.canonical_json()
            )
        object.__setattr__(self, "telemetry", telemetry_cadence(self.telemetry))
        object.__setattr__(self, "burst_buffer", burst_buffer_capacity(self.burst_buffer))
        if (self.app == "trace") != (self.trace is not None):
            raise ValueError(
                "app='trace' requires a trace file path (and only "
                f"app='trace' takes one); got app={self.app!r}, "
                f"trace={self.trace!r}"
            )
        if self.trace is not None:
            if not isinstance(self.trace, str) or not self.trace:
                raise ValueError(f"trace must be a file path, got {self.trace!r}")
            try:
                with open(self.trace, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()[:16]
            except OSError as exc:
                raise ValueError(f"cannot read trace {self.trace!r}: {exc}") from None
            # Cached on the instance (not a field): the run hash must
            # follow the file's content, not its name.
            object.__setattr__(self, "_trace_digest", digest)
        experiment = self.build_experiment()  # checks every value; configs only, no machine
        object.__setattr__(
            self, "fidelity", None if experiment.fidelity == "event" else experiment.fidelity
        )
        object.__setattr__(self, "spans", True if experiment.spans else None)

    # -- identity ----------------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """The hash-defining parameter record (JSON-stable key order)."""
        record = {
            "version": SPEC_VERSION,
            "app": self.app,
            "scale": self.scale,
            "fs": self.fs,
            "policy": self.policy,
            "seed": self.seed,
            "overrides": {k: v for k, v in self.overrides},
        }
        # Only present when set: pre-faults cache entries keep their hashes.
        if self.faults is not None:
            record["faults"] = self.faults
        # Likewise only when set (pre-telemetry entries keep their hashes).
        if self.telemetry is not None:
            record["telemetry"] = self.telemetry
        # Likewise (pre-burst-buffer entries keep their hashes).
        if self.burst_buffer is not None:
            record["burst_buffer"] = self.burst_buffer
        # Likewise (pre-fidelity entries keep their hashes).
        if self.fidelity is not None:
            record["fidelity"] = self.fidelity
        # Likewise (pre-spans entries keep their hashes).
        if self.spans is not None:
            record["spans"] = self.spans
        # Likewise; the digest (not the path) is what identifies the run.
        if self.trace is not None:
            record["trace"] = self._trace_digest
        return record

    @property
    def run_hash(self) -> str:
        """Content hash of the canonicalized parameters (hex, 16 chars)."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def label(self) -> str:
        """Short human identifier for progress lines and tables."""
        parts = [self.app, self.scale, self.fs]
        if self.policy:
            parts.append(self.policy)
        if self.seed is not None:
            parts.append(f"seed{self.seed}")
        if self.faults is not None:
            parts.append(f"faults{hashlib.sha256(self.faults.encode()).hexdigest()[:6]}")
        if self.telemetry is not None:
            parts.append(f"telem{self.telemetry:g}")
        if self.burst_buffer is not None:
            parts.append(f"bb{self.burst_buffer // (1024 * 1024)}M")
        if self.fidelity is not None:
            parts.append(self.fidelity)
        if self.spans is not None:
            parts.append("spans")
        if self.trace is not None:
            parts.append(f"trace{self._trace_digest[:6]}")
        return "/".join(parts)

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        record = self.canonical()
        if self.trace is not None:
            # The digest identifies the run; the path rebuilds it.
            record["trace_path"] = self.trace
        return record

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSpec":
        optional = ("policy", "seed", "faults", "telemetry", "burst_buffer", "fidelity", "spans")
        return cls(
            app=data["app"],
            scale=data.get("scale", "small"),
            fs=data.get("fs", "pfs"),
            overrides=tuple(sorted((data.get("overrides") or {}).items())),
            trace=data.get("trace_path"),
            **{name: data.get(name) for name in optional},
        )

    # -- materialization ---------------------------------------------------
    def build_experiment(self) -> Experiment:
        """Assemble the :class:`Experiment` this spec describes."""
        kwargs: dict[str, Any] = {
            "filesystem": self.fs,
            "policies": self.policy,
            "faults": FaultPlan.from_json(self.faults) if self.faults is not None else None,
            "telemetry": self.telemetry,
            "burst_buffer": self.burst_buffer,
            "fidelity": self.fidelity,
            "spans": self.spans,
        }
        if self.trace is not None or self.overrides:
            # The trace app's presets are scale-free placeholders; the
            # config that matters is the input path (+ any overrides,
            # e.g. think_time).
            source = {} if self.trace is None else {"source": self.trace}
            try:
                kwargs["config"] = dataclasses.replace(
                    APPLICATIONS[self.app].presets[self.scale](),
                    **source, **dict(self.overrides),
                )
            except TypeError as exc:
                raise ValueError(f"bad overrides for {self.app}: {exc}") from None
        if self.seed is not None:
            kwargs["machine_factory"] = partial(MACHINES[self.scale], seed=self.seed)
        return scaled_experiment(self.app, self.scale, **kwargs)


@dataclass
class CampaignSpec:
    """A parameter grid over :class:`RunSpec` fields.

    ``expand()`` takes the cartesian product and drops the combinations
    that cannot exist (a PPFS policy preset on plain PFS), so a grid of
    ``filesystems=('pfs', 'ppfs')`` and several presets yields one PFS
    baseline plus every PPFS variant — deduplicated by content hash.
    """

    apps: Sequence[str] = ("escat", "render", "htf")
    scales: Sequence[str] = ("small",)
    filesystems: Sequence[str] = ("pfs",)
    policies: Sequence[Optional[str]] = (None,)
    seeds: Sequence[Optional[int]] = (None,)
    overrides: dict[str, Any] = field(default_factory=dict)
    #: Fault-plan axis: None (fault-free) and/or FaultPlan instances /
    #: JSON strings — a fault-free baseline plus each faulted twin.
    fault_plans: Sequence[Optional[Any]] = (None,)
    #: Telemetry axis: None (off) and/or sampling cadences in simulated
    #: seconds; enabled runs carry their metric summary in the manifest.
    telemetry: Sequence[Optional[float]] = (None,)
    #: Burst-buffer axis: None (no tier) and/or log capacities in bytes —
    #: combined with interval/size overrides this sweeps the checkpoint
    #: interval x state size x buffer capacity grid.
    burst_buffers: Sequence[Optional[int]] = (None,)
    #: Fidelity axis: None/'event' (discrete, byte-identical) and/or
    #: 'fluid' (closed-form phase service) — an event baseline plus its
    #: approximate-but-fast twin.
    fidelities: Sequence[Optional[str]] = (None,)
    #: Spans axis: None (off) and/or True — enabled runs record causal
    #: span trees (read-only: traces and hashes are unchanged).
    spans: Sequence[Optional[bool]] = (None,)
    #: Ingested-trace axis (``apps`` containing 'trace' only): paths to
    #: JSONL/CSV/SDDF trace files, each replayed under every other axis
    #: combination.  None pairs with the built-in apps.
    traces: Sequence[Optional[str]] = (None,)
    name: str = "campaign"

    def expand(self) -> list[RunSpec]:
        """The grid's concrete runs, in deterministic order, deduplicated."""
        frozen = _freeze_overrides(self.overrides)
        runs: dict[str, RunSpec] = {}
        for app, scale, fs, policy, seed, faults, telem, bb, fid, spn, trc in itertools.product(
            self.apps, self.scales, self.filesystems, self.policies, self.seeds,
            self.fault_plans, self.telemetry, self.burst_buffers, self.fidelities,
            self.spans, self.traces,
        ):
            if fs == "pfs" and policy is not None:
                continue
            # Trace files pair only with the trace app (and vice versa).
            if (app == "trace") != (trc is not None):
                continue
            spec = RunSpec(
                app=app, scale=scale, fs=fs, policy=policy, seed=seed,
                overrides=frozen, faults=faults, telemetry=telem,
                burst_buffer=bb, fidelity=fid, spans=spn, trace=trc,
            )
            runs.setdefault(spec.run_hash, spec)
        if not runs:
            raise ValueError("campaign grid expanded to zero runs")
        return list(runs.values())

    @property
    def campaign_hash(self) -> str:
        """Hash over the sorted run hashes (identifies the whole grid)."""
        digest = hashlib.sha256()
        for h in sorted(r.run_hash for r in self.expand()):
            digest.update(h.encode())
        return digest.hexdigest()[:16]
