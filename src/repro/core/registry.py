"""Application registry: one entry per app and the one scale -> machine table.

Every front door — :class:`~repro.core.Experiment`, campaign run specs,
the CLI and :class:`repro.vfs.SimMachine` — resolves app names and scales
here, so a new application or scale is one edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..apps import workloads
from ..apps.checkpoint import Checkpoint, CheckpointConfig
from ..apps.escat import Escat, EscatConfig
from ..apps.htf import HartreeFock, HTFConfig
from ..apps.render import Render, RenderConfig
from ..apps.trace import TraceReplay, TraceReplayConfig
from ..machine.paragon import Paragon

__all__ = [
    "APPLICATIONS",
    "AppEntry",
    "MACHINES",
    "machine_for",
    "scaled_experiment",
    "paper_experiment",
    "small_experiment",
    "production_experiment",
]

#: scale -> machine factory: the only such table.
MACHINES: dict[str, Callable[..., Paragon]] = {
    "paper": workloads.paper_machine,
    "small": workloads.small_machine,
    "production": workloads.production_machine,
}


def machine_for(scale: str) -> Callable[..., Paragon]:
    """The machine factory for ``scale``."""
    if scale not in MACHINES:
        raise ValueError(f"scale must be one of {sorted(MACHINES)}, got {scale!r}")
    return MACHINES[scale]


@dataclass(frozen=True)
class AppEntry:
    """One application: its config type, its ``{scale: config preset}``
    table, and its runner.  ``runner(name, machine, fs, config, capture)``
    calls ``capture(fs)`` once per traced program and returns
    ``({program: Trace}, application object or None)``."""

    config_type: type
    presets: dict[str, Callable[[], Any]]
    runner: Callable[..., tuple[dict, Any]]


def _skeleton(cls) -> Callable[..., tuple[dict, Any]]:
    """Runner for a single-program SPMD skeleton."""

    def run(name, machine, fs, config, capture):
        app = cls(machine=machine, fs=capture(fs), config=config)
        return {name: app.run()}, app

    return run


def _run_htf(name, machine, fs, config, capture):
    """Runner for the three-program HTF pipeline."""
    return HartreeFock(machine, fs, config, capture=capture).run().programs(), None


def _presets(app: str) -> dict[str, Callable[[], Any]]:
    """``{scale: config preset}``; :mod:`repro.apps.workloads` names each
    preset ``<scale>_<app>``."""
    return {scale: getattr(workloads, f"{scale}_{app}") for scale in MACHINES}


APPLICATIONS: dict[str, AppEntry] = {
    "escat": AppEntry(EscatConfig, _presets("escat"), _skeleton(Escat)),
    "render": AppEntry(RenderConfig, _presets("render"), _skeleton(Render)),
    "htf": AppEntry(HTFConfig, _presets("htf"), _run_htf),
    "checkpoint": AppEntry(CheckpointConfig, _presets("checkpoint"), _skeleton(Checkpoint)),
    # Trace replay: the "bring your own app" entry.  It has no inherent
    # scale — the ingested trace supplies the workload (repro run trace
    # --input FILE) — so every scale starts from the empty config.
    "trace": AppEntry(
        TraceReplayConfig, dict.fromkeys(MACHINES, TraceReplayConfig), _skeleton(TraceReplay)
    ),
}


def scaled_experiment(app: str, scale: str, **fields):
    """The ``scale`` experiment for ``app``: that scale's machine and
    config preset, with ``fields`` overriding any Experiment field."""
    from .experiment import Experiment

    if app not in APPLICATIONS:
        raise KeyError(f"unknown application {app!r}")
    fields.setdefault("machine_factory", machine_for(scale))
    fields.setdefault("config", APPLICATIONS[app].presets[scale]())
    return Experiment(app=app, **fields)


def paper_experiment(app: str, **fields):
    """The paper-scale experiment for ``app`` (fields override)."""
    return scaled_experiment(app, "paper", **fields)


def small_experiment(app: str, **fields):
    """A fast, structure-preserving miniature for tests and examples."""
    return scaled_experiment(app, "small", **fields)


def production_experiment(app: str, **fields):
    """The 2048-node production-scale experiment for ``app``."""
    return scaled_experiment(app, "production", **fields)
